//! Machine-readable engine benchmark: writes `BENCH_simcore.json` at the
//! workspace root (and prints it) so the perf trajectory of *both*
//! simulators is tracked across PRs:
//!
//! * `sim_core` flood — raw simulator step-loop throughput at a controlled
//!   number of in-flight messages (bounded-trace mode, so the large rows
//!   measure the engine, not the action log);
//! * `parallel_flood` — the same flood split across client/server pairs,
//!   run on the serial engine (baseline) and on the sharded parallel
//!   engine (`ParallelSimulation`, one worker thread per shard); the
//!   `speedup` column is parallel/serial steps-per-second.  Interpret it
//!   against `host_threads`: on a single-hardware-thread host the best
//!   possible speedup is ~1× (the engine's scaling shows only on
//!   multi-core hosts);
//! * `open_loop` — deterministic virtual-time latency-vs-offered-load
//!   curves per protocol and executor (p50/p99 in ticks at each offered
//!   rate, plus the saturation knee) and Zipf hot-key contention sweeps,
//!   from the open-loop driver (`snow_workload::open_loop`): serial
//!   curves first, then the sharded engine's (`"executor": "parallel4"`);
//! * `checker_throughput` — transactions per second of the graph-based
//!   strict-serializability checker over full workload-driver histories
//!   (1k/10k/100k transactions, bounded-trace clusters).  Every row must be
//!   a definite verdict: `Unknown` aborts the bench;
//! * `checker_stream` — the incremental streaming checker
//!   (`snow_checker::StreamChecker`) over the same commit streams:
//!   throughput, peak live-window size (its memory bound) and the
//!   post-hoc wall time on the identical history.
//!
//! * `obs` — the deterministic observability section: `sim.*` metrics
//!   folded from the virtual-time event stream of an observed 4-shard
//!   open-loop run (queue depths, epoch-barrier stall counts) plus the
//!   streaming checker's own frontier counters (edges added, window
//!   re-solves, retirement lag) over the shared checker-bench history;
//!
//! * `faults` — the fault-engine smoke: the same workload on a faulty
//!   Algorithm B cluster with an empty schedule vs a 1 %-drop region over
//!   all links.  Histories are deterministic; the wall-clock `slowdown`
//!   ratio is the CI guard (within-run, so host speed cancels out) — the
//!   fault path must not cost more than 5× the clean path;
//!
//! * `scenarios` — the geo-topology scenario matrix
//!   (`snow_workload::scenario`): every protocol × topology ×
//!   workload-shape cell run in virtual time on the site/link topology
//!   layer and summarised as an SLO report — checker-observed SNOW
//!   verdict, read p50/p99 in site-ticks, mean rounds per read, C2C
//!   message count.  Fully deterministic (pure per-message latency
//!   hashes), so smoke runs produce the identical cells and the CI p99
//!   guard compares them directly against this tracked artifact.
//!
//! Run with `cargo run -p snow-bench --release --bin bench_json`.
//! Pass `--no-write` to print without touching the file, `--smoke` for a
//! fast CI-sized run (small floods, short histories; numbers are then only a
//! liveness check, not a trajectory point), or `--section <names>`
//! (comma-separated, repeatable) to regenerate only the named sections —
//! every other section is spliced **verbatim** out of the tracked
//! `BENCH_simcore.json`, so one noisy section can be refreshed without
//! re-running (or perturbing) the rest.

use snow_bench::artifact::extract_section;
use snow_bench::simcore::{run_flood, run_flood_paired, run_flood_parallel, FloodStats};
use snow_checker::{check_auto, GraphChecker, StreamChecker, Verdict};
use snow_core::{History, SystemConfig};
use snow_obs::fold_events;
use snow_protocols::{ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind};
use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule};
use snow_workload::{
    drive_open_loop, rate_sweep, scenario_matrix, slo_report, zipf_sweep, OpenLoopReport,
    OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec, SCENARIO_MATRIX_VERSION,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The cluster every open-loop run is driven against: the latency
/// distribution the golden fixtures and checker benches use, no step cap
/// and a bounded trace, so long saturation runs stay O(in-flight) in memory.
fn open_loop_cluster(
    protocol: ProtocolKind,
    config: &SystemConfig,
    executor: ExecutorKind,
) -> ClusterSpec {
    ClusterSpec::new(protocol, config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .executor(executor)
        .max_steps(u64::MAX)
        .trace_capacity(Some(4096))
}

fn open_loop_point(label: &str, report: &OpenLoopReport) -> String {
    format!(
        "{{{label}, \"realized_offered\": {:.1}, \"achieved\": {:.1}, \
         \"completed\": {}, \"duration_ticks\": {}, \"p50_ticks\": {}, \"p99_ticks\": {}, \
         \"read_p50_ticks\": {}, \"read_p99_ticks\": {}, \"saturated\": {}}}",
        report.realized_offered_rate,
        report.achieved_rate,
        report.completed,
        report.duration,
        report.latency.p50,
        report.latency.p99,
        report.read_latency.p50,
        report.read_latency.p99,
        report.saturated
    )
}

/// A stable JSON label for the executor a curve ran on.
fn executor_label(executor: ExecutorKind) -> String {
    match executor {
        ExecutorKind::SerialSim => "serial".to_string(),
        ExecutorKind::ParallelSim { shards } => format!("parallel{shards}"),
    }
}

/// One latency-vs-throughput curve: `protocol` swept across `rates`
/// (arrivals per kilotick of virtual time) on `executor`.  Latencies are
/// *virtual ticks* measured from the scheduled arrival, so the numbers
/// are deterministic per seed — a changed curve means changed protocol
/// behaviour, not host noise.  Sharded-executor curves measure the same
/// virtual-time physics through the parallel step loop; interpret their
/// wall-clock cost (not recorded here) against `host_threads`.
fn open_loop_curve(
    protocol: ProtocolKind,
    config: &SystemConfig,
    base: &OpenLoopSpec,
    rates: &[u64],
    executor: ExecutorKind,
) -> String {
    let sweep = rate_sweep(&open_loop_cluster(protocol, config, executor), base, rates)
        .expect("open-loop sweep");
    let knee = sweep.knee().map_or("null".to_string(), |k| k.to_string());
    let label = executor_label(executor);
    eprintln!(
        "open_loop {:?} [{}]: knee={} p99@{}={} ticks",
        protocol,
        label,
        knee,
        rates[0],
        sweep.points[0].latency.p99
    );
    let points = sweep
        .points
        .iter()
        .map(|p| format!("      {}", open_loop_point(&format!("\"rate\": {}", p.offered_rate), p)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "    {{\"protocol\": \"{protocol:?}\", \"executor\": \"{label}\", \"knee\": {knee}, \
         \"points\": [\n{points}\n    ]}}"
    )
}

/// Hot-key contention curves: Zipf exponent swept at a fixed pre-knee rate
/// on a write-heavy mix.  Contention-free reads (AlgC) should barely move;
/// the blocking baseline's tail degrades as the hot key serializes.
fn open_loop_zipf(protocol: ProtocolKind, config: &SystemConfig, executor: ExecutorKind) -> String {
    let base = OpenLoopSpec {
        workload: WorkloadSpec::write_heavy(),
        rate: 30,
        arrivals: 200,
        arrival_seed: 3,
    };
    let points =
        zipf_sweep(&open_loop_cluster(protocol, config, executor), &base, &[0.0, 0.8, 1.2])
            .expect("zipf sweep");
    let executor = executor_label(executor);
    points
        .iter()
        .map(|(exp, r)| {
            let label = format!(
                "\"protocol\": \"{protocol:?}\", \"executor\": \"{executor}\", \
                 \"zipf_exponent\": {exp:.1}, \"rate\": {}",
                r.offered_rate
            );
            format!("    {}", open_loop_point(&label, r))
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The shared checker-bench workload: `transactions` write-heavy
/// transactions driven through an Algorithm B cluster in bounded-trace
/// mode.  Both checker sections (`checker_throughput` and
/// `checker_stream`) measure over this same history shape.
fn checker_bench_history(transactions: usize) -> History {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .trace_capacity(Some(4096))
        .build()
        .expect("valid bench config");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) =
        WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, transactions);
    assert_eq!(report.completed, report.issued, "bench workload must complete");
    history
}

/// One `checker_throughput` measurement: drives `transactions` through an
/// Algorithm B cluster in bounded-trace mode and times the graph checker
/// over the complete history (best of `reps`, least noisy).
fn checker_row(transactions: usize, reps: usize) -> String {
    let history = checker_bench_history(transactions);
    let mut wall = std::time::Duration::MAX;
    let mut verdict_name = "";
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let verdict = GraphChecker::new().check(&history);
        wall = wall.min(start.elapsed());
        verdict_name = match &verdict {
            Verdict::Serializable(_) => "serializable",
            Verdict::NotSerializable(why) => panic!("AlgB history not serializable: {why}"),
            Verdict::Unknown(why) => {
                panic!("checker returned Unknown on a workload history: {why}")
            }
        };
    }
    let tx_per_sec = transactions as f64 / wall.as_secs_f64();
    eprintln!(
        "checker graph tx={transactions:>7} wall={wall:?} {tx_per_sec:.0} tx/s ({verdict_name})"
    );
    format!(
        "    {{\"engine\": \"graph\", \"transactions\": {transactions}, \"wall_ns\": {}, \
         \"tx_per_sec\": {tx_per_sec:.1}, \"verdict\": \"{verdict_name}\"}}",
        wall.as_nanos()
    )
}

/// One `checker_stream` measurement: the incremental streaming checker
/// over the same commit stream the post-hoc sections check, best of
/// `reps`.  Reports throughput, peak live-window size (the streaming
/// engine's memory bound — uncertified transactions only, not the full
/// history) and the post-hoc `check_auto` wall time on the identical
/// history for the verdict-latency comparison.  Field names deliberately
/// differ from `checker_throughput`'s (`stream_wall_ns`, not `wall_ns`)
/// so the CI greps for the two sections cannot collide.
fn checker_stream_row(transactions: usize, reps: usize) -> String {
    let history = checker_bench_history(transactions);
    let mut stream_wall = std::time::Duration::MAX;
    let mut posthoc_wall = std::time::Duration::MAX;
    let mut peak_live = 0usize;
    let mut verdict_name = "";
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut checker = StreamChecker::new();
        checker.feed_history(&history);
        let verdict = checker.finish();
        stream_wall = stream_wall.min(start.elapsed());
        peak_live = checker.peak_live_window();
        verdict_name = match &verdict {
            Verdict::Serializable(_) => "serializable",
            Verdict::NotSerializable(why) => panic!("AlgB history not serializable: {why}"),
            Verdict::Unknown(why) => {
                panic!("streaming checker returned Unknown on a workload history: {why}")
            }
        };
        let start = Instant::now();
        let posthoc = check_auto(&history);
        posthoc_wall = posthoc_wall.min(start.elapsed());
        assert!(
            matches!(posthoc, Verdict::Serializable(_)),
            "streaming and post-hoc verdicts diverged on the bench history"
        );
    }
    let tx_per_sec = transactions as f64 / stream_wall.as_secs_f64();
    eprintln!(
        "checker stream tx={transactions:>7} wall={stream_wall:?} {tx_per_sec:.0} tx/s \
         peak_live={peak_live} (post-hoc {posthoc_wall:?})"
    );
    format!(
        "    {{\"engine\": \"stream\", \"transactions\": {transactions}, \
         \"stream_wall_ns\": {}, \"stream_tx_per_sec\": {tx_per_sec:.1}, \
         \"peak_live_window\": {peak_live}, \"posthoc_wall_ns\": {}, \
         \"verdict\": \"{verdict_name}\"}}",
        stream_wall.as_nanos(),
        posthoc_wall.as_nanos()
    )
}

/// Runs `reps` floods at `in_flight` and keeps the fastest (least noisy)
/// measurement.
fn best_of(in_flight: usize, reps: usize) -> FloodStats {
    best_stats(reps, |rep| run_flood(in_flight, 11 + rep))
}

fn best_stats(reps: usize, mut run: impl FnMut(u64) -> FloodStats) -> FloodStats {
    (0..reps.max(1) as u64)
        .map(&mut run)
        .max_by(|a, b| {
            a.steps_per_sec()
                .partial_cmp(&b.steps_per_sec())
                .expect("finite rates")
        })
        .expect("at least one rep")
}

/// One `parallel_flood` measurement: the paired flood on the serial engine
/// vs the sharded engine at `shards` worker threads, best of `reps` each.
fn parallel_flood_row(in_flight: usize, pairs: usize, shards: usize, reps: usize) -> String {
    let serial = best_stats(reps, |rep| run_flood_paired(in_flight, 11 + rep, pairs));
    let parallel =
        best_stats(reps, |rep| run_flood_parallel(in_flight, 11 + rep, pairs, shards));
    assert_eq!(
        serial.steps, parallel.steps,
        "paired flood must execute identical work on both engines"
    );
    let speedup = parallel.steps_per_sec() / serial.steps_per_sec();
    eprintln!(
        "parallel_flood in_flight={:>6} shards={} serial={:.0}/s parallel={:.0}/s x{:.2}",
        in_flight,
        shards,
        serial.steps_per_sec(),
        parallel.steps_per_sec(),
        speedup
    );
    format!(
        "    {{\"in_flight\": {in_flight}, \"pairs\": {pairs}, \"shards\": {shards}, \
         \"steps\": {}, \"serial_steps_per_sec\": {:.1}, \"parallel_steps_per_sec\": {:.1}, \
         \"speedup\": {speedup:.3}}}",
        parallel.steps,
        serial.steps_per_sec(),
        parallel.steps_per_sec()
    )
}

/// First line of a command's stdout, or `"unknown"` when the command
/// cannot run (provenance must never fail the bench).
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance header: which toolchain, commit and host produced the
/// artifact.  No timestamp — regeneration on the same tree must diff
/// only where the numbers moved.
fn provenance_value(host_threads: usize) -> String {
    let rustc = command_line("rustc", &["--version"]);
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    format!(
        "{{\"rustc\": \"{}\", \"git_commit\": \"{}\", \"host_threads\": {host_threads}, \
         \"scenario_matrix_version\": {SCENARIO_MATRIX_VERSION}}}",
        rustc.replace('"', "'"),
        commit.replace('"', "'")
    )
}

/// The `results` (serial flood) section value.
fn results_value(sizes: &[usize], reps: usize) -> String {
    let mut results = String::new();
    for (i, &in_flight) in sizes.iter().enumerate() {
        let stats = best_of(in_flight, reps);
        eprintln!(
            "flood in_flight={:>6}  steps={:>6}  wall={:?}  {:.0} steps/s",
            stats.in_flight,
            stats.steps,
            stats.wall,
            stats.steps_per_sec()
        );
        if i > 0 {
            results.push_str(",\n");
        }
        write!(
            results,
            "    {{\"in_flight\": {}, \"steps\": {}, \"wall_ns\": {}, \"steps_per_sec\": {:.1}}}",
            stats.in_flight,
            stats.steps,
            stats.wall.as_nanos(),
            stats.steps_per_sec()
        )
        .expect("string write");
    }
    format!("[\n{results}\n  ]")
}

/// The `parallel_flood` section value: the sharded engine against the
/// serial baseline on identical paired workloads.  `(in_flight, pairs,
/// shards)`: pairs = client/server pairs in the workload, shards = worker
/// threads they are partitioned onto.
fn parallel_flood_value(smoke: bool, reps: usize) -> String {
    let parallel_cases: &[(usize, usize, usize)] = if smoke {
        &[(1_000, 4, 4)]
    } else {
        &[(10_000, 4, 4), (100_000, 4, 4), (100_000, 8, 8)]
    };
    let rows = parallel_cases
        .iter()
        .map(|&(in_flight, pairs, shards)| parallel_flood_row(in_flight, pairs, shards, reps))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{rows}\n  ]")
}

/// The shared open-loop sweep configuration (also used by the `obs`
/// section's observed run, so its event stream describes the same
/// schedules the latency curves measure).
fn ol_setup() -> (SystemConfig, OpenLoopSpec) {
    (SystemConfig::mwmr(4, 4, 4), OpenLoopSpec { arrivals: 400, ..OpenLoopSpec::tao_like(0) })
}

/// The `open_loop` section value: virtual-time latency-vs-offered-load
/// curves per protocol, plus Zipf hot-key contention sweeps.  These are
/// deterministic (virtual ticks, fixed seeds) and cheap, so smoke runs
/// use the identical configuration — the CI regression guard compares a
/// smoke run's curves directly against this tracked artifact.
/// The serial curves come first (the CI regression guard reads the
/// first AlgB curve's pre-knee p99); the sharded-executor curves of the
/// same schedules follow, labelled by their `executor` field.  Virtual
/// tick latencies on the sharded engine are comparable numbers, but its
/// wall-clock cost depends on `host_threads`.
fn open_loop_value() -> String {
    let (ol_config, ol_base) = ol_setup();
    let ol_rates: &[u64] = &[25, 50, 100, 200, 400];
    let ol_protocols = [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking];
    let ol_executors = [ExecutorKind::SerialSim, ExecutorKind::ParallelSim { shards: 4 }];
    let open_loop_curves = ol_executors
        .iter()
        .flat_map(|&executor| {
            ol_protocols
                .into_iter()
                .map(move |p| (p, executor))
        })
        .map(|(p, executor)| open_loop_curve(p, &ol_config, &ol_base, ol_rates, executor))
        .collect::<Vec<_>>()
        .join(",\n");
    let zipf_config = SystemConfig::mwmr(2, 2, 2);
    let open_loop_zipf_rows = [
        (ProtocolKind::AlgC, ExecutorKind::SerialSim),
        (ProtocolKind::Blocking, ExecutorKind::SerialSim),
        (ProtocolKind::AlgC, ExecutorKind::ParallelSim { shards: 4 }),
        (ProtocolKind::Blocking, ExecutorKind::ParallelSim { shards: 4 }),
    ]
    .into_iter()
    .map(|(p, executor)| open_loop_zipf(p, &zipf_config, executor))
    .collect::<Vec<_>>()
    .join(",\n");
    format!(
        "{{\n    \"rate_unit\": \"tx_per_kilotick\",\n    \"latency_unit\": \"virtual_ticks\",\n    \"arrivals\": {},\n    \"curves\": [\n{open_loop_curves}\n  ],\n    \"zipf\": [\n{open_loop_zipf_rows}\n  ]}}",
        ol_base.arrivals
    )
}

/// The `checker_throughput` section value: full-history
/// strict-serializability throughput.
fn checker_value(checker_sizes: &[usize], reps: usize) -> String {
    let rows = checker_sizes
        .iter()
        .map(|&n| checker_row(n, reps))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{rows}\n  ]")
}

/// The `checker_stream` section value: the incremental engine over the
/// same histories, with its memory bound (peak live window) and the
/// post-hoc wall time for the verdict-latency comparison.
fn checker_stream_value(checker_sizes: &[usize], reps: usize) -> String {
    let rows = checker_sizes
        .iter()
        .map(|&n| checker_stream_row(n, reps))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{rows}\n  ]")
}

/// The `obs` section value — fully deterministic, identical in smoke and
/// full runs:
///
/// * `open_loop`: `sim.*` metrics folded from the virtual-time event
///   stream of an observed 4-shard open-loop AlgB run at a pre-knee rate
///   (queue depths, epoch counts/stalls, commit latencies in ticks);
/// * `checker_stream`: the streaming checker's own frontier counters —
///   edges added, window re-solves, max retirement lag, peak live
///   window — over the shared 1k checker-bench history.
fn obs_value() -> String {
    let (ol_config, ol_base) = ol_setup();
    let spec = OpenLoopSpec { rate: 100, ..ol_base };
    let executor = ExecutorKind::ParallelSim { shards: 4 };
    let mut cluster = open_loop_cluster(ProtocolKind::AlgB, &ol_config, executor)
        .observed(true)
        .build()
        .expect("valid observed open-loop config");
    let (_, report) = drive_open_loop(cluster.as_mut(), &ol_config, &spec);
    let events = cluster.drain_obs_events();
    let metrics = fold_events(&events);
    eprintln!(
        "obs open_loop AlgB [parallel4]: {} events, {} epochs, completed={}",
        events.len(),
        metrics.counters.get("sim.epochs").copied().unwrap_or(0),
        report.completed
    );
    let open_loop = format!(
        "{{\"protocol\": \"AlgB\", \"executor\": \"parallel4\", \"rate\": {}, \
         \"arrivals\": {}, \"completed\": {}, \"events\": {}, \"metrics\": {}}}",
        spec.rate,
        spec.arrivals,
        report.completed,
        events.len(),
        metrics.to_json()
    );
    let transactions = 1_000;
    let history = checker_bench_history(transactions);
    let mut checker = StreamChecker::new().with_obs();
    checker.feed_history(&history);
    let verdict = checker.finish();
    assert!(
        matches!(verdict, Verdict::Serializable(_)),
        "obs checker run must stay serializable"
    );
    let retired_events = checker.drain_obs_events().len();
    let r = checker.report();
    eprintln!(
        "obs checker_stream tx={} frontier: edges={} resolves={} max_lag={} peak_window={}",
        transactions, r.edges_added, r.window_resolves, r.max_retirement_lag, r.peak_live_window
    );
    let stream = format!(
        "{{\"transactions\": {transactions}, \"ingested\": {}, \"certified\": {}, \
         \"stream_peak_live_window\": {}, \"retired_events\": {retired_events}, \
         \"edges_added\": {}, \"window_resolves\": {}, \"max_retirement_lag\": {}}}",
        r.ingested, r.certified, r.peak_live_window, r.edges_added, r.window_resolves,
        r.max_retirement_lag
    );
    format!("{{\n    \"open_loop\": {open_loop},\n    \"checker_stream\": {stream}\n  }}")
}

/// One `faults` measurement: `transactions` through a faulty Algorithm B
/// cluster under `schedule`, best wall time of `reps`.  Returns the rate
/// and the formatted row.
fn fault_run(
    label: &str,
    schedule: &FaultSchedule,
    transactions: usize,
    reps: usize,
) -> (f64, String) {
    let config = SystemConfig::mwmr(4, 4, 4);
    let mut wall = std::time::Duration::MAX;
    let mut completed = 0usize;
    let mut aborted = 0usize;
    for _ in 0..reps.max(1) {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
            .faults(schedule.clone())
            .build()
            .expect("valid fault bench config");
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let start = Instant::now();
        let (history, report) =
            WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, transactions);
        wall = wall.min(start.elapsed());
        completed = report.completed;
        aborted = history
            .records
            .iter()
            .filter(|r| r.outcome.as_ref().is_some_and(|o| o.is_aborted()))
            .count();
        assert_eq!(
            report.completed, report.issued,
            "fault bench must retire every transaction (committed or aborted)"
        );
    }
    let tx_per_sec = transactions as f64 / wall.as_secs_f64();
    eprintln!(
        "faults {label}: tx={transactions} wall={wall:?} {tx_per_sec:.0} tx/s aborted={aborted}"
    );
    let row = format!(
        "    {{\"label\": \"{label}\", \"transactions\": {transactions}, \
         \"completed\": {completed}, \"aborted\": {aborted}, \"fault_wall_ns\": {}, \
         \"fault_tx_per_sec\": {tx_per_sec:.1}}}",
        wall.as_nanos()
    );
    (tx_per_sec, row)
}

/// The `faults` section value: clean vs 1 %-drop throughput on the faulty
/// builder, plus the within-run `slowdown` ratio the CI guard reads.
fn faults_value(smoke: bool) -> String {
    let (transactions, reps) = if smoke { (300, 1) } else { (3_000, 3) };
    let clean_schedule = FaultSchedule::new(0x5EED);
    let drop_schedule = FaultSchedule::new(0x5EED).with_region(FaultRegion {
        action: FaultAction::Drop,
        src: EndpointSel::Any,
        dst: EndpointSel::Any,
        from: 0,
        until: u64::MAX,
        chance_pct: 1,
    });
    let (clean_rate, clean_row) = fault_run("clean", &clean_schedule, transactions, reps);
    let (drop_rate, drop_row) = fault_run("drop1pct", &drop_schedule, transactions, reps);
    let slowdown = clean_rate / drop_rate;
    eprintln!("faults slowdown drop1pct vs clean: {slowdown:.3}x");
    format!(
        "{{\n    \"protocol\": \"AlgB\", \"rows\": [\n{clean_row},\n{drop_row}\n    ],\n    \
         \"slowdown_drop1_vs_clean\": {slowdown:.3}}}"
    )
}

/// The `scenarios` section value: one SLO report per cell of the
/// geo-topology scenario matrix.  Latencies are virtual site-ticks from
/// the topology's per-link distributions and the verdict comes from the
/// checker, so every number is a pure function of `(cell, seed)` —
/// identical in smoke and full runs, and bit-stable across hosts.
fn scenarios_value() -> String {
    let seed = 42;
    let rounds = 4;
    let rows = scenario_matrix()
        .iter()
        .map(|cell| {
            let r = slo_report(cell, seed, rounds).expect("scenario cell");
            eprintln!(
                "scenario {}: snow={} committed={} read_p50={} read_p99={} ticks",
                r.scenario, r.snow, r.committed, r.read_p50, r.read_p99
            );
            format!(
                "      {{\"scenario\": \"{}\", \"snow\": \"{}\", \"committed\": {}, \
                 \"aborted\": {}, \"read_p50_ticks\": {}, \"read_p99_ticks\": {}, \
                 \"mean_rounds\": {:.2}, \"c2c_messages\": {}, \"duration_ticks\": {}}}",
                r.scenario,
                r.snow,
                r.committed,
                r.aborted,
                r.read_p50,
                r.read_p99,
                r.mean_rounds,
                r.c2c_messages,
                r.duration_ticks
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n    \"matrix_version\": {SCENARIO_MATRIX_VERSION}, \"seed\": {seed}, \
         \"rounds\": {rounds}, \"latency_unit\": \"site_ticks\",\n    \"cells\": [\n{rows}\n  ]}}"
    )
}

/// Canonical top-level key order of `BENCH_simcore.json`.
const SECTION_ORDER: &[&str] = &[
    "bench",
    "scenario",
    "engine",
    "smoke",
    "host_threads",
    "provenance",
    "results",
    "parallel_flood",
    "open_loop",
    "checker_throughput",
    "checker_stream",
    "faults",
    "obs",
    "scenarios",
];

/// Sections `--section` may regenerate (the scalar header sections are
/// always recomputed — they are free and must reflect this run).
const SELECTABLE: &[&str] = &[
    "results",
    "parallel_flood",
    "open_loop",
    "checker_throughput",
    "checker_stream",
    "faults",
    "obs",
    "scenarios",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Smoke numbers are a liveness check, never a trajectory point: --smoke
    // always implies --no-write so a quick run cannot clobber the tracked
    // artifact.
    let write = !smoke && !args.iter().any(|a| a == "--no-write");
    // --section <names>: regenerate only the named sections, splicing the
    // rest verbatim from the tracked artifact.
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--section" {
            let Some(names) = it.next() else {
                eprintln!("--section requires a section name (one of: {})", SELECTABLE.join(", "));
                std::process::exit(2);
            };
            for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                if !SELECTABLE.contains(&name) {
                    eprintln!(
                        "unknown section {name:?}; selectable sections: {}",
                        SELECTABLE.join(", ")
                    );
                    std::process::exit(2);
                }
                selected.push(name.to_string());
            }
        }
    }
    if smoke && !selected.is_empty() {
        eprintln!("--section regenerates the tracked artifact; it cannot be combined with --smoke");
        std::process::exit(2);
    }
    let tracked_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");
    let tracked = if selected.is_empty() {
        String::new()
    } else {
        std::fs::read_to_string(tracked_path).unwrap_or_else(|e| {
            eprintln!("--section needs the tracked {tracked_path} to splice from: {e}");
            std::process::exit(2);
        })
    };
    let regen = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);
    let splice = |name: &str| -> String {
        extract_section(&tracked, name)
            .unwrap_or_else(|| {
                eprintln!(
                    "tracked {tracked_path} has no {name:?} section to splice; \
                     run the full bench once (no --section)"
                );
                std::process::exit(2);
            })
            .to_string()
    };

    let (sizes, reps): (&[usize], usize) = if smoke {
        (&[1_000], 1)
    } else {
        (&[1_000, 10_000, 100_000], 3)
    };
    let checker_sizes: &[usize] = if smoke { &[1_000] } else { &[1_000, 10_000, 100_000] };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut sections: Vec<(&str, String)> = Vec::with_capacity(SECTION_ORDER.len());
    for &name in SECTION_ORDER {
        let value = match name {
            "bench" => "\"sim_core\"".to_string(),
            "scenario" => "\"flood\"".to_string(),
            "engine" => "\"event-queue\"".to_string(),
            "smoke" => smoke.to_string(),
            "host_threads" => host_threads.to_string(),
            "provenance" => provenance_value(host_threads),
            _ if !regen(name) => splice(name),
            "results" => results_value(sizes, reps),
            "parallel_flood" => parallel_flood_value(smoke, reps),
            "open_loop" => open_loop_value(),
            "checker_throughput" => checker_value(checker_sizes, reps),
            "checker_stream" => checker_stream_value(checker_sizes, reps),
            "faults" => faults_value(smoke),
            "obs" => obs_value(),
            "scenarios" => scenarios_value(),
            _ => unreachable!("every section in SECTION_ORDER is handled"),
        };
        sections.push((name, value));
    }
    let body = sections
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!("{{\n{body}\n}}\n");
    if write {
        std::fs::write(tracked_path, &json).expect("write BENCH_simcore.json");
        eprintln!("wrote {tracked_path}");
    }
    print!("{json}");
}
