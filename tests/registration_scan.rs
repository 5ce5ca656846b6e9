//! The coordinator's registration cost, counted exactly: how many keys of
//! `List` the `update-coor` registrations of an AlgB run searched
//! (`WriteLog::scanned_keys`).  A registration whose key is above its
//! writer's newest registered `seq` is appended through the coordinator's
//! per-writer table without a search, and in a fault-free run every one
//! is, so both shapes read 0.
//!
//! Before the table, each registration searched back from `List`'s end
//! for its writer's previous entry, past every other writer's since.  The
//! same runs read 253 016 keys over 3 994 registrations in one DC with 64
//! writers (63.35 each) and 39 994 over 10 000 on the three-site WAN with
//! 4 writers (4.00 each).

use snow::core::{ProcessId, SystemConfig};
use snow::protocols::list::COORDINATOR;
use snow::protocols::{deploy_any, AnyNode, ProtocolKind};
use snow::sim::{LatencyScheduler, Simulation, Topology};
use snow::workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::sync::Arc;

/// Runs `transactions` write-heavy AlgB transactions in closed-loop rounds
/// of `per_round` over `topology` (seed 7), and returns the coordinator's
/// `(|List| − 1, scanned keys)`: the registrations and what they searched.
fn registrations(
    config: SystemConfig,
    topology: Topology,
    per_round: usize,
    transactions: usize,
) -> (usize, u64) {
    let mut sim =
        Simulation::new(LatencyScheduler::over(Arc::new(topology), 7)).with_max_steps(u64::MAX);
    for node in deploy_any(ProtocolKind::AlgB, &config).unwrap() {
        sim.add_process(node);
    }
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (_, report) = WorkloadDriver::new(per_round).run(&mut sim, &mut generator, transactions);
    assert_eq!(report.completed, transactions);
    let Some(AnyNode::List(coordinator)) = sim.process(ProcessId::Server(COORDINATOR)) else {
        panic!("AlgB deploys its coordinator as a List node");
    };
    let list = coordinator.list().expect("the coordinator holds List");
    (list.len() - 1, list.scanned_keys())
}

#[test]
fn wide_algb_in_one_dc_registers_without_searching() {
    let config = SystemConfig::mwmr(16, 64, 64);
    let topology = Topology::single_dc(&config);
    assert_eq!(registrations(config, topology, 128, 8_000), (3_994, 0));
}

#[test]
fn algb_on_the_wan_registers_without_searching() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let topology = Topology::wan3(&config);
    assert_eq!(registrations(config, topology, 8, 20_000), (10_000, 0));
}
