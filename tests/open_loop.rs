//! Open-loop driver determinism and certification
//! (`snow_workload::open_loop`).
//!
//! Four pins:
//!
//! * **The open-loop table, exactly.**  The latency-vs-load curves, knees
//!   and Zipf points `table_open_loop` prints (`snow_bench::open_loop_rows`
//!   / `zipf_rows`) are virtual ticks — pure functions of the seeds — so
//!   they are compared for equality.
//! * **Pure-function histories.**  An open-loop history must be a pure
//!   function of `(workload seed, arrival seed, rate, scheduler seed)`:
//!   two fresh runs of the same spec must agree byte for byte.
//! * **Strict serializability under saturation.**  Every generated
//!   history, including past-knee runs where client-side queueing delays
//!   pile up, must be certified by the graph checker.  Saturation stresses
//!   the protocols (deep message backlogs, long reorder windows); the
//!   checker must still find a serialization.
//! * **Wide fan-out through the one reused effects buffer.**  The
//!   simulator lends one `Effects` buffer to every handler and drains
//!   it in place; a wide config — 8 servers, each READ's objects fanned
//!   out from one handler — must still produce deterministic, certified
//!   histories (emission order unchanged).  The 30 golden
//!   protocol × scheduler fixtures (tests/determinism.rs) pin the same
//!   property bit-for-bit.

use proptest::proptest;
use proptest::ProptestConfig;
use snow::checker::GraphChecker;
use snow::core::{History, SystemConfig};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{drive_open_loop, OpenLoopSpec, WorkloadSpec};
use snow_bench::{open_loop_rows, row, zipf_rows};

/// Canonical rendering of a history for bit-identity comparison: the full
/// `Debug` form covers specs, outcomes, timings, rounds, C2C counts and
/// read instrumentation.
fn canon(history: &History) -> String {
    format!("{history:?}")
}

fn spec(body_seed: u64, arrival_seed: u64, rate: u64, arrivals: usize) -> OpenLoopSpec {
    OpenLoopSpec {
        workload: WorkloadSpec { seed: body_seed, ..WorkloadSpec::tao_like() },
        rate,
        arrivals,
        arrival_seed,
    }
}

fn run(protocol: ProtocolKind, config: &SystemConfig, spec: &OpenLoopSpec, seed: u64) -> History {
    // Saturation runs are long: no step cap.
    let mut cluster = ClusterSpec::new(protocol, config)
        .scheduler(SchedulerKind::Latency { seed, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .build()
        .expect("valid open-loop config");
    let (history, report) = drive_open_loop(cluster.as_mut(), config, spec);
    assert_eq!(report.completed, report.issued, "open-loop arrivals must all complete");
    history
}

fn certify(history: &History, label: &str) {
    let verdict = GraphChecker::new().check(history);
    assert!(verdict.is_serializable(), "{label}: {verdict:?}");
}

#[test]
fn open_loop_history_is_bit_identical_across_runs_and_certified_past_the_knee() {
    let config = SystemConfig::mwmr(4, 4, 4);
    // Past AlgB's knee on this config (100/kilotick, see the pinned table
    // below), so the determinism claim covers the queueing-heavy regime too.
    let spec = spec(5, 7, 150, 120);
    let a = run(ProtocolKind::AlgB, &config, &spec, 9);
    let b = run(ProtocolKind::AlgB, &config, &spec, 9);
    assert_eq!(canon(&a), canon(&b), "open-loop history must be a pure function of (seed, rate)");
    certify(&a, "AlgB open loop past the knee");
}

#[test]
fn wide_fanout_through_the_reused_effects_buffer_keeps_histories_deterministic() {
    // 8 servers: a READ's fan-out emits one send per object from one
    // handler, into the buffer the previous handler call left drained.
    let config = SystemConfig::mwmr(8, 2, 2);
    let spec = spec(2, 13, 40, 60);
    let a = run(ProtocolKind::AlgB, &config, &spec, 17);
    let b = run(ProtocolKind::AlgB, &config, &spec, 17);
    assert_eq!(canon(&a), canon(&b), "a reused Effects buffer must not perturb emission order");
    certify(&a, "wide-fanout run");
}

/// `table_open_loop`'s rows against their pinned rendering:
/// `| protocol | knee | p50/p99 at 25, 50, 100, 200, 400 per kilotick |` and
/// `| protocol | Zipf exponent | achieved/offered | saturated | p99 | READ p99 |`.
#[test]
fn serial_open_loop_table_is_pinned() {
    let render = |rows: Vec<Vec<String>>| rows.iter().map(|cells| row(cells)).collect::<Vec<_>>();
    let curves = [
        "| AlgB | 100 | 48/77 | 54/108 | 430/1209 | 1509/3152 | 2045/4109 |",
        "| AlgC | 100 | 30/44 | 34/71 | 143/491 | 1089/2341 | 1629/3317 |",
        "| Blocking | 50 | 81/148 | 225/809 | 1944/4183 | 2992/6048 | 3486/7019 |",
    ];
    let zipf = [
        "| AlgC | 0.0 | 31.6/31.7 | false | 83 | 35 |",
        "| AlgC | 0.8 | 31.5/31.7 | false | 82 | 45 |",
        "| AlgC | 1.2 | 31.5/31.7 | false | 90 | 46 |",
        "| Blocking | 0.0 | 26.4/31.7 | true | 1954 | 1955 |",
        "| Blocking | 0.8 | 24.0/31.7 | true | 2038 | 2059 |",
        "| Blocking | 1.2 | 19.6/31.7 | true | 3911 | 3336 |",
    ];
    assert_eq!(render(open_loop_rows()), curves, "curves");
    assert_eq!(render(zipf_rows()), zipf, "Zipf points");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sweep of the pure-function claim: body seed, arrival
    /// seed, scheduler seed and offered rate (straddling the knee) all
    /// vary; every run must reproduce itself bit-for-bit and be
    /// graph-certified.
    #[test]
    fn open_loop_histories_are_pure_functions_of_seeds_and_rate(
        body_seed in 0u64..1_000,
        arrival_seed in 0u64..1_000,
        sched_seed in 0u64..1_000,
        rate in 10u64..250,
    ) {
        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = spec(body_seed, arrival_seed, rate, 60);
        let a = run(ProtocolKind::AlgB, &config, &spec, sched_seed);
        let b = run(ProtocolKind::AlgB, &config, &spec, sched_seed);
        assert_eq!(canon(&a), canon(&b), "rate={rate}");
        certify(&a, &format!("proptest rate={rate}"));
    }
}
