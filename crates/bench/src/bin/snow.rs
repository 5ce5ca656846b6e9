//! `snow` — one command for everything the workspace prints: the paper's
//! figures, the extended-study tables, the golden-history fixtures and
//! three end-to-end runs (`cargo run -p snow-bench --release -- <command>`;
//! the `snow-bench` crate docs say what each command prints).  Every number
//! is exact in virtual time, a pure function of the seeds, so two runs print
//! the same bytes.  Anything but a command in `USAGE` prints the usage on
//! stderr and exits with status 2.

use std::process::ExitCode;
use std::sync::Arc;

use snow_bench::{
    golden, header, open_loop_rows, row, run_protocol_workload, scenario_rows,
    verify_alg_a_snow, zipf_rows, OPEN_LOOP_RATES,
};
use snow_checker::{
    check_auto, HistoryMetrics, LatencyStats, SnowReport, StreamChecker, Verdict,
};
use snow_core::SystemConfig;
use snow_impossibility::{eiger_fig5, run_fig5, run_three_client_chain, run_two_client_chain};
use snow_obs::{fold_events, perfetto_json};
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow_sim::{FaultSchedule, Partition, PartitionPolicy, Topology, TICK};
use snow_workload::{
    drive_open_loop, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};

const USAGE: &str = "\
usage: snow <command>
  fig 1a|1b|3|4|5
  table latency|versions|open-loop|scenarios
  golden [--faults] [--write]
  run workload-check|observe|partition-drill
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["fig", "1a"] => fig1a(),
        ["fig", "1b"] => fig1b(),
        ["fig", "3"] => fig3(),
        ["fig", "4"] => fig4(),
        ["fig", "5"] => fig5(),
        ["table", "latency"] => table_latency(),
        ["table", "versions"] => table_versions(),
        ["table", "open-loop"] => table_open_loop(),
        ["table", "scenarios"] => table_scenarios(),
        ["golden", flags @ ..] if flags.iter().all(|f| matches!(*f, "--faults" | "--write")) => {
            golden(flags.contains(&"--faults"), flags.contains(&"--write"))
        }
        ["run", "workload-check"] => run_workload_check(),
        ["run", "observe"] => run_observe(),
        ["run", "partition-drill"] => run_partition_drill(),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn fig1a() {
    let alg_a = |config: SystemConfig| match verify_alg_a_snow(&config, 0..40) {
        Ok(()) => "✓ (Algorithm A verified SNOW)",
        Err(failure) => {
            eprintln!("{failure}");
            "✗ UNEXPECTED"
        }
    };
    println!("# Figure 1(a) — Is SNOW possible?\n");
    println!("{}", header(&["Setting", "C2C allowed", "C2C disallowed", "Evidence"]));

    // Two clients (1 reader, 1 writer) — a special case of MWSR.
    let two_clients = alg_a(SystemConfig::mwsr(2, 1, true));
    let two_client_chain = run_two_client_chain();
    println!(
        "{}",
        row(&[
            "2 clients".into(),
            two_clients.into(),
            if two_client_chain.verdict_is_violation { "× (Theorem 2 chain)" } else { "? " }.into(),
            format!(
                "{} randomized schedules all SNOW; δ-chain of {} moves ends with the READ before INV(W)",
                40, two_client_chain.moves.len()
            ),
        ])
    );

    // MWSR with several writers.
    println!(
        "{}",
        row(&[
            "MWSR".into(),
            alg_a(SystemConfig::mwsr(3, 3, true)).into(),
            "× (Theorem 2 chain applies: it never uses the extra writers)".into(),
            "3 writers, 3 servers, 40 randomized schedules".into(),
        ])
    );

    // ≥ 3 clients: impossible either way (Theorem 1).
    let three = run_three_client_chain();
    println!(
        "{}",
        row(&[
            "≥ 3 clients".into(),
            if three.verdict_is_violation { "× (Theorem 1 chain)" } else { "?" }.into(),
            "× (same chain; C2C unused)".into(),
            format!(
                "α2→α10 in {} steps; final execution has R2 before R1 returning ({:?} vs {:?}); checker: {}",
                three.steps.len(),
                three.r2_returns,
                three.r1_returns,
                if three.verdict_is_violation { "NOT strictly serializable" } else { "?" }
            ),
        ])
    );
    println!();
    println!("Paper's Fig. 1(a): 2 clients ✓/×, MWSR ✓/×, ≥3 clients ×/(×)  — reproduced.");
}

fn fig1b() {
    println!("# Figure 1(b) — Bounded SNW algorithms (rounds × versions)\n");
    println!(
        "{}",
        header(&[
            "Algorithm",
            "Rounds (max)",
            "Versions (max)",
            "S",
            "N",
            "W",
            "One-round",
            "One-version"
        ])
    );
    for protocol in [ProtocolKind::AlgA, ProtocolKind::AlgB, ProtocolKind::AlgC] {
        let config = protocol.config(4, 3, 2);
        let (_h, metrics, report) =
            run_protocol_workload(protocol, &config, WorkloadSpec::write_heavy(), 300, 11);
        let versions = metrics.max_versions();
        let one_version = if versions <= 1 {
            "✓".to_string()
        } else {
            let bound = config.writers().count() + 1;
            format!("relaxed: {versions} measured, paper ≤ |W|+1 = {bound}")
        };
        println!(
            "{}",
            row(&[
                protocol.name().into(),
                metrics.max_rounds().to_string(),
                versions.to_string(),
                if report.observed.s { "✓" } else { "✗" }.into(),
                if report.observed.n { "✓" } else { "✗" }.into(),
                if report.observed.w { "✓" } else { "✗" }.into(),
                if metrics.max_rounds() <= 1 { "✓" } else { "relaxed" }.into(),
                one_version,
            ])
        );
    }
    println!();
    println!("Paper's Fig. 1(b): (1 round, 1 version) ×; (2 rounds, 1 version) ✓ [Alg. B]; (1 round, |W| versions) ✓ [Alg. C]. ");
    println!("Algorithm A occupies the (1,1) cell only because it is MWSR with C2C — the cell the theorem carves out.");
    println!("Algorithm C's measured versions exceed the paper's |W|+1 bound: servers here never collect a version, so a READ's versions grow with the write history.");
}

fn fig3() {
    let report = run_three_client_chain();
    println!("# Figure 3 — executions α2 … α10 (Theorem 1)\n");
    for step in &report.steps {
        println!("{}:", step.name);
        println!("  order: {}", step.order.join(" ∘ "));
        if !step.moves.is_empty() {
            println!("  moves: {}", step.moves.join("; "));
        }
        println!("  justification: {}\n", step.justification);
    }
    println!("R2 entirely before R1: {}", report.r2_before_r1);
    println!(
        "R2 returns version {:?}, R1 returns version {:?}",
        report.r2_returns, report.r1_returns
    );
    println!(
        "strict serializability of α10's outcome: {}",
        if report.verdict_is_violation { "VIOLATED (as the theorem requires)" } else { "?!" }
    );
    println!("checker detail: {}", report.verdict_detail);
}

fn fig4() {
    let report = run_two_client_chain();
    println!("# Figure 4 — two-client, no-C2C impossibility (Theorem 2)\n");
    println!("η  : {}", report.initial_order.join(" ∘ "));
    println!("φ  : {}", report.final_order.join(" ∘ "));
    println!("\nmoves ({} total):", report.moves.len());
    for m in &report.moves {
        println!("  move {} past {:<12} [{}]", m.fragment, m.past, m.justification);
    }
    println!(
        "\nREAD completes before INV(W): {} (returning version {})",
        report.read_before_write_invocation, report.r1_returns_version
    );
    println!(
        "strict serializability of φ's outcome: {}",
        if report.verdict_is_violation { "VIOLATED (as the theorem requires)" } else { "?!" }
    );
    println!("checker detail: {}", report.verdict_detail);
}

fn fig5() {
    let report = run_fig5();
    println!("# Figure 5 — Eiger counterexample\n");
    println!(
        "READ returned o0 = {} (w3's value) and o1 = {} (w1's value)",
        report.read_o0, report.read_o1
    );
    println!("Eiger accepted the snapshot in its first round: {}", report.accepted_first_round);
    println!(
        "strict serializability: {}",
        if report.verdict_is_violation {
            "VIOLATED — w2 completed before w3 started but is not observed"
        } else {
            "?!"
        }
    );
    println!("checker detail: {}", report.verdict_detail);
    println!(
        "\nsequential control (same transactions, benign schedule) strictly serializable: {}",
        eiger_fig5::run_fig5_sequential_control()
    );
}

fn table_latency() {
    println!("# E8 — READ transaction latency by protocol\n");
    println!("{}", header(&["Protocol", "p50 (ticks)", "p99 (ticks)", "mean rounds", "S?"]));
    for protocol in ProtocolKind::all() {
        let config = protocol.config(4, 2, 2);
        let (_h, metrics, report) =
            run_protocol_workload(protocol, &config, WorkloadSpec::tao_like(), 400, 3);
        println!(
            "{}",
            row(&[
                protocol.name().into(),
                metrics.read_latency.p50.to_string(),
                metrics.read_latency.p99.to_string(),
                format!("{:.2}", metrics.mean_rounds),
                if report.observed.s { "✓" } else { "✗" }.into(),
            ])
        );
    }
    println!("\nExpected shape: Simple ≈ Alg A ≈ Alg C (1 round) < Alg B ≈ Eiger (≤2 rounds) < Blocking 2PL.");
}

fn table_versions() {
    // Write-only closed loop on mwmr(2, |W|, 1), then one READ probe per writer.
    let run = |protocol, writers: u32| {
        let config = SystemConfig::mwmr(2, writers, 1);
        let mut cluster = ClusterSpec::new(protocol, &config)
            .scheduler(SchedulerKind::Latency { seed: 9, min: 1, max: 30 })
            .build()
            .unwrap();
        let spec = WorkloadSpec {
            read_fraction: 0.0,
            objects_per_read: 2,
            objects_per_write: 2,
            zipf_exponent: 0.0,
            seed: 5,
        };
        let mut generator = WorkloadGenerator::new(&config, spec);
        let (history, _) = WorkloadDriver::new(writers as usize + 1).run_read_probe(
            cluster.as_mut(),
            &mut generator,
            20,
            writers as usize,
        );
        HistoryMetrics::from_history(&history)
    };
    println!("# E9 — versions returned per READ vs concurrent writers |W|\n");
    println!(
        "{}",
        header(&[
            "|W| (writers)",
            "Alg C versions (mean)",
            "Alg C versions (max)",
            "Alg B versions (max)",
            "Alg C rounds (max)",
            "Alg B rounds (max)"
        ])
    );
    for writers in [1u32, 2, 4, 8, 16] {
        let c = run(ProtocolKind::AlgC, writers);
        let b = run(ProtocolKind::AlgB, writers);
        println!(
            "{}",
            row(&[
                writers.to_string(),
                format!("{:.2}", c.mean_versions),
                c.max_versions().to_string(),
                b.max_versions().to_string(),
                c.max_rounds().to_string(),
                b.max_rounds().to_string(),
            ])
        );
    }
    println!("\nExpected shape: Alg C's versions grow with the write history (bounded by registered writes + 1),");
    println!("Alg B stays at exactly 1 version but always pays 2 rounds.");
}

fn table_open_loop() {
    println!(
        "# Open loop — p50/p99 latency (virtual ticks) by offered rate (arrivals per kilotick)"
    );
    let rates: Vec<String> = OPEN_LOOP_RATES.iter().map(|r| format!("@{r}")).collect();
    let curve_head: Vec<&str> =
        ["Protocol", "knee"].into_iter().chain(rates.iter().map(String::as_str)).collect();
    let zipf_head =
        ["Protocol", "Zipf exponent", "achieved/offered", "saturated", "p99", "READ p99"];
    println!("\n## 400 TAO-like arrivals, mwmr(4,4,4)\n");
    println!("{}", header(&curve_head));
    for cells in open_loop_rows() {
        println!("{}", row(&cells));
    }
    println!("\n## Hot keys — 200 write-heavy arrivals at rate 30, mwmr(2,2,2)\n");
    println!("{}", header(&zipf_head));
    for cells in zipf_rows() {
        println!("{}", row(&cells));
    }
    println!("\nExpected shape: Alg C (1 round) holds a lower latency and a later knee than Alg B");
    println!(
        "(2 rounds); Blocking 2PL saturates first, and at rate 30 is past its knee at every skew."
    );
}

fn table_scenarios() {
    println!("# Scenario matrix — seed 42, 256 closed-loop rounds per cell\n");
    println!(
        "{}",
        header(&[
            "Scenario",
            "SNOW",
            "committed",
            "READ p50 (site-ticks)",
            "READ p99 (site-ticks)",
            "mean rounds",
            "C2C messages",
            "duration (site-ticks)",
        ])
    );
    for cells in scenario_rows() {
        println!("{}", row(&cells));
    }
    println!("\nExpected shape: Alg C reads take one round (1.01 where its counted fallback fired) against");
    println!("Alg B's two and are faster in every cell; WAN cells cost a multiple of the single-DC floor.");
}

fn golden(faults: bool, write: bool) {
    let contents = golden::fixture_file(faults);
    let file = if faults { "golden_fault_histories.txt" } else { "golden_histories.txt" };
    if write {
        let path = format!("{}/../../tests/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &contents).expect("write fixture file");
        eprintln!("wrote {path}");
    }
    print!("{contents}");
}

/// `check_auto` tries the Lemma 20 tag order first: Algorithm C tags every
/// transaction, so the whole history is certified by the tag-order stream.
/// An untagged or tag-contradicting history would go to the stream engine,
/// which maintains a precedence DAG (real time + write/read dependencies +
/// inferred anti-dependencies) online and replay-validates its witness.
fn run_workload_check() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 25 })
        .max_steps(u64::MAX)
        .build()
        .unwrap();
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) = WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, 5_000);
    println!(
        "drove {} transactions in {} rounds ({} simulated ticks)",
        report.completed, report.rounds, report.duration
    );
    match check_auto(&history) {
        Verdict::Serializable(witness) => println!(
            "strictly serializable: replay-validated witness over {} transactions",
            witness.len()
        ),
        Verdict::NotSerializable(why) => panic!("Algorithm C violated S: {why}"),
        Verdict::Unknown(why) => panic!("checker could not decide: {why}"),
    }
    // The SNOW report uses the same engine selection for its S verdict.
    let report = SnowReport::evaluate("workload_check / Algorithm C", &history);
    println!("{}", report.summary_line());
    assert!(report.is_snw(), "Algorithm C guarantees S, N and W");
}

/// Observation never perturbs the schedule: an unobserved run of the same
/// workload produces the identical history.
fn run_observe() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let spec = OpenLoopSpec { rate: 100, arrivals: 400, ..OpenLoopSpec::tao_like(0) };
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .observed(true)
        .build()
        .expect("valid observed config");
    let (history, report) = drive_open_loop(cluster.as_mut(), &config, &spec);
    let events = cluster.drain_obs_events();
    println!(
        "observed open-loop AlgB: {} arrivals, {} completed, {} events",
        spec.arrivals,
        report.completed,
        events.len()
    );

    // Metrics are *derived* from the event stream after the run — the
    // deterministic simulator never aggregates live.
    let metrics = fold_events(&events);
    println!("metrics = {metrics:#?}");

    // Perfetto export: the simulator's track → a thread, transactions →
    // async spans, sends/deliveries → instants.
    let trace = perfetto_json(&events, "snow observed open-loop (AlgB)", 1);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).expect("create the trace directory");
    let path = format!("{dir}/observe_run.trace.json");
    std::fs::write(&path, &trace).expect("write trace");
    let path = std::fs::canonicalize(&path).expect("trace path");
    println!("perfetto trace ({} bytes) -> {}", trace.len(), path.display());

    // The streaming checker exposes its own frontier: how many precedence
    // edges the live window accumulated, how often ambiguity forced a
    // window re-solve, and how far retirement trailed the watermark.
    let mut checker = StreamChecker::new().with_obs();
    checker.feed_history(&history);
    let verdict = checker.finish();
    let retired = checker.drain_obs_events();
    let r = checker.report();
    assert!(
        matches!(verdict, Verdict::Serializable(_)),
        "AlgB open-loop history must be strictly serializable"
    );
    println!(
        "checker: serializable; frontier: edges_added={} window_resolves={} \
         max_retirement_lag={} peak_live_window={} ({} retirement events)",
        r.edges_added,
        r.window_resolves,
        r.max_retirement_lag,
        r.peak_live_window,
        retired.len()
    );
    println!("observe_run ok");
}

/// The partition drill's window, in site-ticks: `us-east` is isolated from
/// tick 2000 (inclusive) until the heal at tick 9000.
const PARTITION_FROM_TICKS: u64 = 2_000;
const PARTITION_HEAL_TICKS: u64 = 9_000;

/// [`Partition::isolate_site`] reads the site's membership off the
/// [`Topology`], so the drill cuts whatever `wan3` placed at `us-east`
/// (servers 0 and 3, clients 0, 3 and 6).  Under the `Queue` policy,
/// messages crossing the cut are held and delivered at the heal:
/// transactions straddling the cut stall across the window instead of
/// dying — a latency cliff, not an availability hole — while operations
/// confined to the cut site keep committing at LAN speed.  Anything the
/// schedule still orphans retires as `Aborted` at quiescence, which the
/// checkers tolerate.  Latencies are reported in site-ticks (`TICK` engine
/// ticks each).
fn run_partition_drill() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let topology = Arc::new(Topology::wan3(&config));
    let site = topology.site_index("us-east").expect("wan3 places a us-east site");
    let cut = Partition::isolate_site(
        &topology,
        site,
        PARTITION_FROM_TICKS * TICK,
        PARTITION_HEAL_TICKS * TICK,
        PartitionPolicy::Queue,
    );
    println!(
        "partition drill: AlgB on wan3, isolating us-east = {} processes \
         over site-ticks {PARTITION_FROM_TICKS}..{PARTITION_HEAL_TICKS} (Queue policy)",
        cut.side_a.len()
    );
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::clone(&topology), 11)
        .faults(FaultSchedule::new(0xBEEF).with_partition(cut))
        .build()
        .expect("valid partition scenario");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());

    // The *paced* driver frees a client the moment its transaction retires.
    // Every transaction touches all four servers, two of them in us-east, so
    // once the cut lands the in-flight slots wedge behind it; the "before"
    // bucket below carries the stalled straddlers (invoked before the cut,
    // retired at the heal).
    let (history, report) = WorkloadDriver::new(4).run_paced(cluster.as_mut(), &mut generator, 400);
    assert_eq!(
        report.completed, report.issued,
        "every transaction must retire (committed or aborted)"
    );
    println!(
        "{} transactions retired in {} virtual site-ticks",
        report.completed,
        cluster.now() / TICK
    );

    // Per-phase latency: bucket each transaction by *invocation* tick and
    // take the p99 of committed-transaction latencies in each bucket.
    let mut phases: [(&str, Vec<u64>, usize); 3] =
        [("before", Vec::new(), 0), ("during", Vec::new(), 0), ("after", Vec::new(), 0)];
    for rec in history.completed() {
        let phase = if rec.invoked_at < PARTITION_FROM_TICKS * TICK {
            0
        } else if rec.invoked_at < PARTITION_HEAL_TICKS * TICK {
            1
        } else {
            2
        };
        if rec.outcome.as_ref().is_some_and(|o| o.is_aborted()) {
            phases[phase].2 += 1;
        } else {
            let resp = rec.responded_at.expect("completed record has a RESP");
            phases[phase].1.push((resp - rec.invoked_at) / TICK);
        }
    }
    for (name, latencies, aborted) in &phases {
        let p99 = LatencyStats::from_samples(latencies).p99;
        println!(
            "phase {name:>6}: {} committed, {} aborted, p99 latency {p99} site-ticks",
            latencies.len(),
            aborted,
        );
    }

    // S is checked with the engine `check_auto` picks, N/O/W from the
    // per-read instrumentation.  Algorithm B keeps S and one-version reads
    // through the partition.
    let snow = SnowReport::evaluate("partition_drill / Algorithm B", &history);
    println!("{}", snow.summary_line());
    assert!(
        snow.observed.s,
        "Algorithm B must stay strictly serializable through a queued partition"
    );
    assert!(snow.observed.w, "every invoked WRITE must retire through the partition");
    println!("partition_drill ok");
}
