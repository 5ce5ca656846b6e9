//! Observability tour: run an observed open-loop workload, fold
//! the virtual-time event stream into `sim.*` metrics, export a Perfetto
//! trace, and show the streaming checker's frontier counters over the
//! same history.
//!
//! Everything printed here is deterministic — simulator events are
//! stamped with virtual ticks, a pure function of `(configuration,
//! seeds)`, so two runs of this example produce identical
//! output (and an unobserved run of the same workload produces the
//! identical history: observation never perturbs the schedule).
//!
//! The trace file is written to `target/observe_run.trace.json`; open
//! <https://ui.perfetto.dev> and load it — the simulator appears as one
//! thread, transactions as async spans and sends/deliveries as instants.
//!
//! Run with: `cargo run --example observe_run`

use snow::checker::StreamChecker;
use snow::core::SystemConfig;
use snow::obs::{fold_events, perfetto_json};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{drive_open_loop, OpenLoopSpec};

fn main() {
    // An observed run: the same driver as any open-loop run, but the
    // cluster records every dispatch, send, delivery and commit.
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
    // async spans.
    let trace = perfetto_json(&events, "snow observed open-loop (AlgB)", 1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/observe_run.trace.json");
    std::fs::write(path, &trace).expect("write trace");
    println!("perfetto trace ({} bytes) -> {path}", trace.len());

    // The streaming checker exposes its own frontier: how many precedence
    // edges the live window accumulated, how often ambiguity forced a
    // window re-solve, and how far retirement trailed the watermark.
    let mut checker = StreamChecker::new().with_obs();
    checker.feed_history(&history);
    let verdict = checker.finish();
    let retired = checker.drain_obs_events();
    let r = checker.report();
    assert!(
        matches!(verdict, snow::checker::Verdict::Serializable(_)),
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
