//! Observability-layer guarantees, end to end:
//!
//! 1. **Schedule neutrality** — running every golden combo (all 30
//!    protocol × scheduler fixtures) on an *observed* cluster produces the
//!    byte-identical canonical history the unobserved cluster produces.
//!    Observation must never perturb a schedule.
//! 2. **Event-stream determinism** — the virtual-time event stream of an
//!    observed run is a pure function of the seeds (property-tested).
//! 3. **Perfetto export** — the Chrome-trace JSON of an observed open-loop
//!    run parses and is schema-valid: metadata rows name the track, every
//!    async span opened is closed, phases are from the known set.
//! 4. **Checker frontier counters** — the streaming checker's
//!    `CheckerRetired` events and `StreamReport` counters are populated,
//!    monotone and internally consistent.

use proptest::proptest;
use proptest::ProptestConfig;
use snow::checker::StreamChecker;
use snow::core::{History, SystemConfig};
use snow::obs::json::Json;
use snow::obs::{fold_events, perfetto_json, ObsEvent, ShardEvent};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{drive_open_loop, OpenLoopReport, OpenLoopSpec, WorkloadSpec};
use snow_bench::golden::{combos, run_combo, run_combo_observed};

const SCHED: SchedulerKind = SchedulerKind::Latency { seed: 11, min: 1, max: 16 };

/// Drives `spec` open loop against an Algorithm B cluster (no step cap)
/// and returns the history, the report and whatever the cluster recorded
/// — nothing unless `observed`.
fn open_loop_run(
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    scheduler: SchedulerKind,
    observed: bool,
) -> (History, OpenLoopReport, Vec<ShardEvent>) {
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, config)
        .scheduler(scheduler)
        .max_steps(u64::MAX)
        .observed(observed)
        .build()
        .expect("valid open-loop config");
    let (history, report) = drive_open_loop(cluster.as_mut(), config, spec);
    (history, report, cluster.drain_obs_events())
}

// ---- 1. schedule neutrality over the golden fixtures ----------------------

#[test]
fn observed_combos_reproduce_all_golden_histories_serially() {
    for combo in combos() {
        let plain = run_combo(&combo);
        let (observed, events) = run_combo_observed(&combo);
        assert_eq!(plain, observed, "{}: observation perturbed the schedule", combo.label);
        assert!(!events.is_empty(), "{}: observed run recorded no events", combo.label);
        assert!(
            events.iter().all(|e| e.shard == 0),
            "{}: simulator events must all be on track 0",
            combo.label
        );
    }
}

// ---- 2. event-stream determinism ------------------------------------------

fn observed_events(body_seed: u64, sched_seed: u64) -> Vec<ShardEvent> {
    let config = SystemConfig::mwmr(4, 2, 2);
    let spec = OpenLoopSpec {
        workload: WorkloadSpec { seed: body_seed, ..WorkloadSpec::tao_like() },
        rate: 50,
        arrivals: 40,
        arrival_seed: body_seed ^ 0x9E37,
    };
    let scheduler = SchedulerKind::Latency { seed: sched_seed, min: 1, max: 16 };
    let (_, report, events) = open_loop_run(&config, &spec, scheduler, true);
    assert_eq!(report.completed, 40, "open-loop run must complete");
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn event_stream_is_a_pure_function_of_seeds(
        body_seed in 0u64..1_000,
        sched_seed in 0u64..1_000,
    ) {
        let a = observed_events(body_seed, sched_seed);
        let b = observed_events(body_seed, sched_seed);
        assert_eq!(a, b, "the same seeds must replay the same event stream");
    }
}

#[test]
fn observation_does_not_change_open_loop_reports() {
    // An observed cluster must drive the identical workload: same
    // completion count, same latency percentiles as the plain one.
    let config = SystemConfig::mwmr(4, 4, 4);
    let spec = OpenLoopSpec { rate: 100, arrivals: 400, ..OpenLoopSpec::tao_like(0) };
    let (history, report, silent) = open_loop_run(&config, &spec, SCHED, false);
    assert!(silent.is_empty(), "an unobserved cluster records nothing");
    let (obs_history, obs_report, events) = open_loop_run(&config, &spec, SCHED, true);
    assert_eq!(report.completed, obs_report.completed);
    assert_eq!(report.latency.p99, obs_report.latency.p99);
    assert_eq!(history.records.len(), obs_history.records.len());
    // The stream is a pure function of the seeds, so what it folds to is
    // pinned exactly: every arrival invoked and committed, ten messages per
    // transaction, one event per external action (`examples/observe_run.rs`
    // prints this run).
    assert_eq!(events.len(), 8_800);
    let metrics = fold_events(&events);
    let counters: Vec<(&str, u64)> =
        metrics.counters.iter().map(|(name, n)| (name.as_str(), *n)).collect();
    assert_eq!(
        counters,
        [
            ("sim.commits", 400),
            ("sim.deliveries", 4_000),
            ("sim.invocations", 400),
            ("sim.sends", 4_000),
        ]
    );
    assert_eq!(metrics.gauges["sim.queue_depth_peak"], 16);
    let latency = metrics.histograms["sim.tx_latency_ticks"];
    assert_eq!((latency.count, latency.p50, latency.p99), (400, 63, 74));
    assert!(events.iter().all(|e| e.shard == 0), "one track");
}

// ---- 3. Perfetto export schema --------------------------------------------

#[test]
fn perfetto_export_of_an_observed_run_is_schema_valid() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let spec = OpenLoopSpec { rate: 100, arrivals: 120, ..OpenLoopSpec::tao_like(0) };
    let (_, _, events) = open_loop_run(&config, &spec, SCHED, true);
    let text = perfetto_json(&events, "schema test", 1);
    let doc = Json::parse(&text).expect("exported trace must parse");
    let rows = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(rows.len() > events.len(), "metadata rows come on top of event rows");
    let mut thread_names = 0;
    let mut opens = 0i64;
    let mut closes = 0i64;
    for row in rows {
        let ph = row.get("ph").and_then(Json::as_str).expect("every row has ph");
        assert!(
            matches!(ph, "M" | "b" | "e" | "i" | "C"),
            "unexpected phase {ph:?}"
        );
        match ph {
            "M" if row.get("name").and_then(Json::as_str) == Some("thread_name") => {
                thread_names += 1;
            }
            "b" => opens += 1,
            "e" => closes += 1,
            _ => {}
        }
        if ph != "M" {
            assert!(row.get("ts").and_then(Json::as_num).is_some(), "{ph}: ts required");
            assert!(row.get("pid").and_then(Json::as_num).is_some(), "{ph}: pid required");
        }
    }
    assert_eq!(thread_names, 1, "one thread meta for the simulator's track");
    assert_eq!(opens, closes, "every tx span opened must close");
    assert_eq!(opens, 120, "one async span per arrival");
}

// ---- 4. checker frontier counters -----------------------------------------

#[test]
fn stream_checker_frontier_counters_are_consistent() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let spec = OpenLoopSpec { rate: 100, arrivals: 300, ..OpenLoopSpec::tao_like(0) };
    let (history, _, _) = open_loop_run(&config, &spec, SCHED, true);
    let mut checker = StreamChecker::new().with_obs();
    checker.feed_history(&history);
    let verdict = checker.finish();
    assert!(
        matches!(verdict, snow::checker::Verdict::Serializable(_)),
        "bench history must be serializable: {verdict:?}"
    );
    let report = checker.report();
    assert!(report.edges_added > 0, "overlapping commits must add precedence edges");
    assert_eq!(report.certified, report.ingested, "finish drains the whole window");
    let events = checker.drain_obs_events();
    assert!(!events.is_empty(), "observed checker must emit retirement events");
    let mut last_at = 0;
    let mut last_certified = 0;
    for event in &events {
        let ObsEvent::CheckerRetired {
            at,
            certified,
            live_window,
            frontier,
            edges_added,
            window_resolves,
            retirement_lag,
        } = event
        else {
            panic!("checker emits only CheckerRetired events, got {event:?}");
        };
        assert!(*at >= last_at, "retirement watermarks are monotone");
        assert!(*certified >= last_certified, "certified count is monotone");
        assert!(u64::from(*frontier) <= *certified + u64::from(*live_window) + 1);
        assert!(*edges_added <= report.edges_added);
        assert!(*window_resolves <= report.window_resolves);
        assert!(*retirement_lag <= report.max_retirement_lag);
        last_at = *at;
        last_certified = *certified;
    }
    assert_eq!(last_certified, report.certified as u64);
    assert!(checker.drain_obs_events().is_empty(), "drain takes the events");
    // An unobserved checker runs the identical analysis without events.
    let mut plain = StreamChecker::new();
    plain.feed_history(&history);
    plain.finish();
    assert!(plain.drain_obs_events().is_empty());
    assert_eq!(plain.report().edges_added, report.edges_added);
    assert_eq!(plain.report().max_retirement_lag, report.max_retirement_lag);
}
