//! The instrumentation sweep: one digest over what the substrate *derives*
//! — `rounds`, `c2c_messages` and every `ReadResult` (`nonblocking`,
//! `versions_in_response`) — where that derivation is under the most
//! stress: contention (Zipf 1.4) and duplicated, dropped and crash-lost
//! messages.
//!
//! Six protocols × {FIFO, `Random`, `Latency`, `wan3`} × {clean,
//! `dup_storm`, `crash_mid_read`, 3 % drop + 3 % duplicate}, under both the
//! round driver (`run`) and the completion-paced one (`run_paced`).  The
//! `Debug` rendering of every history is folded into one FNV
//! digest.  The 45 golden fixtures cover 20-transaction runs on 3 servers;
//! this covers the causal instrumentation, and a change to how it is
//! derived (or to dispatch order, seeds or message ids) must not move it.
//! If it moves on purpose, re-pin it from the failure message and say why.

use snow_bench::golden::fingerprint;
use snow_core::{History, SystemConfig};
use snow_protocols::{
    scenario_crash_mid_read, scenario_dup_storm, ClusterSpec, ProtocolKind, SchedulerKind,
};
use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule, Topology};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::sync::Arc;

/// Transactions per run.
const TXNS: usize = 60;

/// The digest of the whole sweep, re-taken when latency draws and fault
/// gates moved onto the send's coordinates and the engine onto one dispatch
/// rule: the 120 cells `{fifo, random, wan3} × {clean, crash_mid_read}` kept
/// the fingerprint they had at `2e52181` (`0x0804_6ea9_c8db_f4b3`, before
/// the causal ledger was dissolved into the message stamp); the `latency`
/// schedule and the probabilistic fault columns moved.  Re-taken once more
/// (from `0x3c6e_3bf1_0723_3131`) when registration became idempotent and a
/// READ kept its first tag array: 62 cells moved, all of them Algorithm A,
/// B or C under `dup_storm` or `lossy` — the two columns that duplicate
/// messages; no fault-free or crash cell did.  Re-taken again (from
/// `0x5b6f_e0b5_59bf_8944`) when Simple, Eiger and Blocking writers began
/// to count acks per object, so a duplicated ack no longer completes a
/// WRITE: 63 cells moved, all of them Simple, Eiger or Blocking under
/// `dup_storm` or `lossy`.  Re-taken last (from `0xbe84_b7ac_21a0_621a`)
/// when the sharded engine was deleted and its 192 2- and 4-shard cells
/// with it; the 192 cells left kept their fingerprints bit for bit (their
/// labels lost the `/serial` column).
const SWEEP_DIGEST: u64 = 0x843f_4d66_487c_8508;

fn config(protocol: ProtocolKind) -> SystemConfig {
    if protocol.needs_c2c() {
        SystemConfig::mwsr(4, 3, true)
    } else {
        SystemConfig::mwmr(4, 3, 3)
    }
}

/// 3 % of all traffic dropped and 3 % duplicated, in both directions.
fn lossy() -> FaultSchedule {
    let everywhere = |action| FaultRegion {
        action,
        src: EndpointSel::Any,
        dst: EndpointSel::Any,
        from: 0,
        until: u64::MAX,
        chance_pct: 3,
    };
    FaultSchedule::new(0x5EED)
        .with_region(everywhere(FaultAction::Drop))
        .with_region(everywhere(FaultAction::Duplicate))
}

fn fault_columns() -> [(&'static str, Option<FaultSchedule>); 4] {
    [
        ("clean", None),
        ("dup_storm", Some(scenario_dup_storm())),
        ("crash_mid_read", Some(scenario_crash_mid_read())),
        ("lossy", Some(lossy())),
    ]
}

/// The four delivery schedules; `wan3` is the three-site topology.
const SCHEDULES: [&str; 4] = ["fifo", "random", "latency", "wan3"];

fn scheduled(spec: ClusterSpec, schedule: &str) -> ClusterSpec {
    match schedule {
        "fifo" => spec.scheduler(SchedulerKind::Fifo),
        "random" => spec.scheduler(SchedulerKind::Random(11)),
        "latency" => spec.scheduler(SchedulerKind::Latency { seed: 5, min: 1, max: 20 }),
        _ => {
            let wan3 = Arc::new(Topology::wan3(spec.config()));
            spec.topology(wan3, 17)
        }
    }
}

/// Runs one cell under one driver.
fn run_cell(spec: &ClusterSpec, paced: bool) -> History {
    let mut cluster = spec.build().expect("valid sweep cell");
    let workload = WorkloadSpec {
        read_fraction: 0.5,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 1.4,
        seed: 29,
    };
    let mut generator = WorkloadGenerator::new(spec.config(), workload);
    let driver = WorkloadDriver::new(4);
    let (history, _) = if paced {
        driver.run_paced(cluster.as_mut(), &mut generator, TXNS)
    } else {
        driver.run(cluster.as_mut(), &mut generator, TXNS)
    };
    assert!(history.len() >= TXNS / 2, "a sweep cell ran almost nothing");
    history
}

#[test]
fn instrumentation_sweep_digest_is_pinned() {
    let mut cells = Vec::new();
    let mut all = String::new();
    // What the sweep must have met to be worth pinning: a C2C message, a
    // blocked read, a second round, an aborted transaction.
    let mut met = [false; 4];
    for protocol in ProtocolKind::all() {
        let config = config(protocol);
        for schedule in SCHEDULES {
            for (fault, faults) in fault_columns() {
                let mut spec = scheduled(ClusterSpec::new(protocol, &config), schedule);
                if let Some(faults) = faults {
                    spec = spec.faults(faults);
                }
                for paced in [false, true] {
                    let history = run_cell(&spec, paced);
                    for rec in &history.records {
                        met[0] |= rec.c2c_messages > 0;
                        met[1] |= !rec.all_reads_nonblocking();
                        met[2] |= rec.rounds >= 2;
                        met[3] |= rec.outcome.as_ref().is_some_and(|o| o.is_aborted());
                    }
                    let text = format!("{history:?}");
                    cells.push(format!(
                        "{protocol:?}/{schedule}/{fault}/{} {:016x}",
                        if paced { "paced" } else { "rounds" },
                        fingerprint(&text)
                    ));
                    all.push_str(&text);
                }
            }
        }
    }
    assert_eq!(cells.len(), 6 * 4 * 4 * 2);
    assert_eq!(met, [true; 4], "[c2c, blocked read, second round, abort] not all met");
    assert_eq!(
        fingerprint(&all),
        SWEEP_DIGEST,
        "sweep digest {:#018x} moved; per-cell fingerprints:\n{}",
        fingerprint(&all),
        cells.join("\n")
    );
}
