//! Open-loop driver determinism and certification
//! (`snow_workload::open_loop`).
//!
//! Four pins:
//!
//! * **The open-loop table, exactly.**  The latency-vs-load curves, knees
//!   and Zipf points `table_open_loop` prints (`snow_bench::open_loop_rows`
//!   / `zipf_rows`) are virtual ticks — pure functions of the seeds — so
//!   they are compared for equality, on the serial engine and on 4 shards.
//! * **Pure-function histories.**  An open-loop history must be a pure
//!   function of `(workload seed, arrival seed, rate, shard count)`: two
//!   fresh runs of the same spec — including on the sharded parallel
//!   engine, where worker threads race the OS scheduler — must agree byte
//!   for byte.
//! * **Strict serializability under saturation.**  Every generated
//!   history, including past-knee runs where client-side queueing delays
//!   pile up, must be certified by the graph checker.  Saturation stresses
//!   the protocols (deep message backlogs, long reorder windows); the
//!   checker must still find a serialization.
//! * **Wide fan-out through the one reused effects buffer.**  Each
//!   dispatch core lends one `Effects` buffer to every handler and drains
//!   it in place; a wide config — 8 servers, each READ's objects fanned
//!   out from one handler — must still produce deterministic, certified
//!   histories (emission order unchanged).  The 30 golden
//!   protocol × scheduler fixtures (tests/determinism.rs) pin the same
//!   property bit-for-bit.

use proptest::proptest;
use proptest::ProptestConfig;
use snow::checker::GraphChecker;
use snow::core::{History, SystemConfig};
use snow::protocols::{ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind};
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

fn run(
    protocol: ProtocolKind,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    seed: u64,
    executor: ExecutorKind,
) -> History {
    // Saturation runs are long: no step cap, bounded trace.
    let mut cluster = ClusterSpec::new(protocol, config)
        .scheduler(SchedulerKind::Latency { seed, min: 1, max: 16 })
        .executor(executor)
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
fn open_loop_history_is_bit_identical_across_runs_and_certified_at_2_and_4_shards() {
    let config = SystemConfig::mwmr(4, 4, 4);
    // Past AlgB's knee on this config (100/kilotick on both executors, see
    // the pinned tables below), so the determinism claim covers the
    // queueing-heavy regime too.
    let spec = spec(5, 7, 150, 120);
    for shards in [2usize, 4] {
        let executor = ExecutorKind::ParallelSim { shards };
        let a = run(ProtocolKind::AlgB, &config, &spec, 9, executor);
        let b = run(ProtocolKind::AlgB, &config, &spec, 9, executor);
        assert_eq!(
            canon(&a),
            canon(&b),
            "open-loop history must be a pure function of (seed, rate, shards={shards})"
        );
        certify(&a, &format!("AlgB open loop at {shards} shards"));
    }
}

#[test]
fn serial_and_one_shard_parallel_open_loop_agree() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let spec = spec(3, 11, 60, 100);
    let serial = run(ProtocolKind::AlgC, &config, &spec, 5, ExecutorKind::SerialSim);
    let one_shard =
        run(ProtocolKind::AlgC, &config, &spec, 5, ExecutorKind::ParallelSim { shards: 1 });
    assert_eq!(
        canon(&serial),
        canon(&one_shard),
        "1-shard parallel open loop must replicate the serial engine"
    );
}

#[test]
fn wide_fanout_through_the_reused_effects_buffer_keeps_histories_deterministic() {
    // 8 servers: a READ's fan-out emits one send per object from one
    // handler, into the buffer the previous handler call left drained.
    let config = SystemConfig::mwmr(8, 2, 2);
    let spec = spec(2, 13, 40, 60);
    let a = run(ProtocolKind::AlgB, &config, &spec, 17, ExecutorKind::SerialSim);
    let b = run(ProtocolKind::AlgB, &config, &spec, 17, ExecutorKind::SerialSim);
    assert_eq!(canon(&a), canon(&b), "a reused Effects buffer must not perturb emission order");
    certify(&a, "wide-fanout run");
}

/// `table_open_loop`'s rows on `executor` against their pinned rendering:
/// `| protocol | knee | p50/p99 at 25, 50, 100, 200, 400 per kilotick |` and
/// `| protocol | Zipf exponent | achieved/offered | saturated | p99 | READ p99 |`.
fn assert_open_loop_table(executor: ExecutorKind, curves: [&str; 3], zipf: [&str; 6]) {
    let render = |rows: Vec<Vec<String>>| rows.iter().map(|cells| row(cells)).collect::<Vec<_>>();
    assert_eq!(render(open_loop_rows(executor)), curves, "{executor:?}: curves");
    assert_eq!(render(zipf_rows(executor)), zipf, "{executor:?}: Zipf points");
}

#[test]
fn serial_open_loop_table_is_pinned() {
    assert_open_loop_table(
        ExecutorKind::SerialSim,
        [
            "| AlgB | 100 | 48/77 | 54/108 | 430/1209 | 1509/3152 | 2045/4109 |",
            "| AlgC | 100 | 30/44 | 34/71 | 143/491 | 1089/2341 | 1629/3317 |",
            "| Blocking | 50 | 81/148 | 225/809 | 1944/4183 | 2992/6048 | 3486/7019 |",
        ],
        [
            "| AlgC | 0.0 | 31.6/31.7 | false | 83 | 35 |",
            "| AlgC | 0.8 | 31.5/31.7 | false | 82 | 45 |",
            "| AlgC | 1.2 | 31.5/31.7 | false | 90 | 46 |",
            "| Blocking | 0.0 | 26.4/31.7 | true | 1954 | 1955 |",
            "| Blocking | 0.8 | 24.0/31.7 | true | 2038 | 2059 |",
            "| Blocking | 1.2 | 19.6/31.7 | true | 3911 | 3336 |",
        ],
    );
}

#[test]
fn four_shard_open_loop_table_is_pinned() {
    assert_open_loop_table(
        ExecutorKind::ParallelSim { shards: 4 },
        [
            "| AlgB | 100 | 63/130 | 103/232 | 838/2185 | 1863/4093 | 2504/5112 |",
            "| AlgC | 200 | 35/79 | 37/77 | 63/130 | 419/974 | 962/1972 |",
            "| Blocking | 50 | 97/185 | 445/1734 | 2552/5672 | 3651/7587 | 4062/8381 |",
        ],
        [
            "| AlgC | 0.0 | 31.4/31.7 | false | 136 | 80 |",
            "| AlgC | 0.8 | 31.3/31.7 | false | 145 | 75 |",
            "| AlgC | 1.2 | 31.5/31.7 | false | 137 | 72 |",
            "| Blocking | 0.0 | 25.7/31.7 | true | 1935 | 1935 |",
            "| Blocking | 0.8 | 20.0/31.7 | true | 3675 | 3692 |",
            "| Blocking | 1.2 | 19.3/31.7 | true | 4061 | 3386 |",
        ],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sweep of the pure-function claim: body seed, arrival
    /// seed, scheduler seed, offered rate (straddling the knee) and shard
    /// count all vary; every run must reproduce itself bit-for-bit and be
    /// graph-certified.
    #[test]
    fn open_loop_histories_are_pure_functions_of_seed_rate_shards(
        body_seed in 0u64..1_000,
        arrival_seed in 0u64..1_000,
        sched_seed in 0u64..1_000,
        rate in 10u64..250,
        shards in 1usize..5,
    ) {
        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = spec(body_seed, arrival_seed, rate, 60);
        let executor = ExecutorKind::ParallelSim { shards };
        let a = run(ProtocolKind::AlgB, &config, &spec, sched_seed, executor);
        let b = run(ProtocolKind::AlgB, &config, &spec, sched_seed, executor);
        assert_eq!(canon(&a), canon(&b), "rate={rate} shards={shards}");
        certify(&a, &format!("proptest rate={rate} shards={shards}"));
    }
}
