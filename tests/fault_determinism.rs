//! Fault-engine determinism: a faulty history is a pure function of
//! `(protocol, scheduler, seeds, fault schedule)` — the same contract the
//! clean engine pins in `tests/determinism.rs`, extended over crashes,
//! partitions and message-level faults.
//!
//! Two angles:
//!
//! * the pinned fault matrix reproduces `tests/golden_fault_histories.txt`
//!   fingerprint-for-fingerprint (regenerate with
//!   `cargo run -p snow-bench --release --bin golden_histories -- --faults
//!   --write` only on an intentional semantics change);
//! * an *empty* `FaultSchedule` is structurally inert: a faulty cluster
//!   with nothing scheduled reproduces the clean cluster's history
//!   byte-for-byte for all 30 golden combos.
//!
//! A proptest sweeps randomized schedules (drop/dup/delay regions, a
//! queueing crash) through reruns to catch fault-path nondeterminism the
//! pinned matrix misses.

use proptest::proptest;
use proptest::ProptestConfig;
use snow_bench::golden;
use snow_protocols::{ProtocolKind, SchedulerKind};
use snow_core::ServerId;
use snow_sim::{Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden_fault_histories.txt");

fn parse_fixture() -> BTreeMap<String, (usize, u64)> {
    let mut out = BTreeMap::new();
    for line in FIXTURE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = parts.next().expect("fixture label").to_string();
        let ntx = parts
            .next()
            .and_then(|p| p.strip_prefix("ntx="))
            .expect("fixture ntx")
            .parse::<usize>()
            .expect("fixture ntx value");
        let hash = parts
            .next()
            .and_then(|p| p.strip_prefix("hash="))
            .expect("fixture hash");
        let hash = u64::from_str_radix(hash, 16).expect("fixture hash value");
        out.insert(label, (ntx, hash));
    }
    out
}

#[test]
fn fault_histories_match_golden_fixtures() {
    let fixtures = parse_fixture();
    let combos = golden::fault_combos();
    assert_eq!(
        fixtures.len(),
        combos.len(),
        "fault fixture file and combo list out of sync; regenerate the fixtures"
    );
    let mut mismatches = Vec::new();
    for combo in &combos {
        let (ntx, want) = fixtures
            .get(&combo.label)
            .unwrap_or_else(|| panic!("no fixture for {}", combo.label));
        assert_eq!(*ntx, golden::COMBO_TXNS, "{}", combo.label);
        let canon = golden::run_fault_combo(combo);
        let got = golden::fingerprint(&canon);
        if got != *want {
            eprintln!(
                "=== {} mismatch: want {want:016x}, got {got:016x} ===\n{canon}",
                combo.label
            );
            mismatches.push(combo.label.clone());
        }
    }
    assert!(
        mismatches.is_empty(),
        "fault histories diverged from golden fixtures: {mismatches:?}"
    );
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
        let clean = golden::run_combo(&combo);
        let faulty =
            golden::run_fault_schedule(combo.protocol, combo.scheduler, FaultSchedule::new(0));
        let want = format!("{} aborted=0\n", clean.trim_end_matches('\n'));
        assert_eq!(
            faulty, want,
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
            let run = || {
                golden::run_fault_schedule(
                    protocol,
                    scheduler,
                    random_schedule(seed, pct, delay, crash),
                )
            };
            assert_eq!(run(), run(), "{protocol:?}: fault rerun diverged");
        }
    }
}
