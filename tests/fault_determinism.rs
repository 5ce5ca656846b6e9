//! Fault-engine determinism: a faulty history is a pure function of
//! `(protocol, scheduler, seeds, fault schedule)` — the same contract the
//! clean engine pins in `tests/determinism.rs`, extended over crashes,
//! partitions and message-level faults.
//!
//! Two angles:
//!
//! * the pinned fault matrix reproduces `tests/golden_fault_histories.txt`
//!   fingerprint for fingerprint and line for line (regenerate with
//!   `cargo run -p snow-bench --release -- golden --faults --write` only on an intentional semantics change);
//! * an *empty* `FaultSchedule` is structurally inert: a faulty cluster
//!   with nothing scheduled reproduces the clean cluster's history
//!   byte-for-byte for all 30 golden combos.
//!
//! A proptest sweeps randomized schedules (drop/dup/delay regions, a
//! queueing crash) through reruns to catch fault-path nondeterminism the
//! pinned matrix misses.

#[path = "support/fixtures.rs"]
mod fixtures;

use proptest::proptest;
use proptest::ProptestConfig;
use snow_bench::golden::{self, Combo};
use snow_core::ServerId;
use snow_protocols::{ProtocolKind, SchedulerKind};
use snow_sim::{Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule};

#[test]
fn fault_histories_match_golden_fixtures() {
    fixtures::assert_matches(include_str!("golden_fault_histories.txt"), true);
}

#[test]
fn empty_fault_schedule_is_inert() {
    // The faulty builder with nothing scheduled must reproduce the clean
    // builder byte-for-byte (modulo the `aborted=0` trailer the faulty
    // renderer appends): the fault engine may not perturb message ids,
    // scheduler draws or clocks when no fault fires.  Combined with
    // `tests/determinism.rs` this keeps all 30 committed golden fixtures
    // valid under an empty schedule.
    for combo in golden::combos() {
        let faulty = Combo { faults: Some(FaultSchedule::new(0)), ..combo.clone() };
        let want = format!("{} aborted=0\n", combo.canonical().trim_end_matches('\n'));
        assert_eq!(
            faulty.canonical(),
            want,
            "{}: an empty fault schedule perturbed the history",
            combo.label
        );
    }
}

fn random_schedule(seed: u64, pct: u8, delay: u64, crash: bool) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed)
        .with_region(FaultRegion {
            action: FaultAction::Drop,
            src: EndpointSel::AnyClient,
            dst: EndpointSel::AnyServer,
            from: 10,
            until: 80,
            chance_pct: pct,
        })
        .with_region(FaultRegion {
            action: FaultAction::Duplicate,
            src: EndpointSel::AnyClient,
            dst: EndpointSel::AnyServer,
            from: 40,
            until: 160,
            chance_pct: pct / 2,
        })
        .with_region(FaultRegion {
            action: FaultAction::Delay(delay),
            src: EndpointSel::AnyServer,
            dst: EndpointSel::AnyClient,
            from: 0,
            until: u64::MAX,
            chance_pct: pct,
        });
    if crash {
        schedule = schedule.with_crash(Crash {
            server: ServerId(1),
            at: 25,
            recover_at: 60 + delay,
            policy: CrashPolicy::QueueInFlight,
        });
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn randomized_fault_schedules_are_pure_functions_of_their_inputs(
        seed in 0u64..1_000_000,
        pct_raw in 1u64..60,
        delay in 1u64..40,
        crash_raw in 0u64..2,
    ) {
        let pct = pct_raw as u8;
        let crash = crash_raw == 1;
        let scheduler = SchedulerKind::Latency { seed: seed ^ 0xA5A5, min: 1, max: 15 };
        for protocol in ProtocolKind::all() {
            let faults = Some(random_schedule(seed, pct, delay, crash));
            let combo = Combo { protocol, scheduler, faults, label: format!("{protocol:?}") };
            assert_eq!(combo.canonical(), combo.canonical(), "{protocol:?}: fault rerun diverged");
        }
    }
}
