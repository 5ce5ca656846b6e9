//! The repo benchmark: three named workloads through the real front doors
//! (`ClusterSpec` → `WorkloadDriver` / `drive_open_loop` → `StreamChecker` /
//! `check_auto`), end-to-end metrics with tracing off, and — in a separate
//! traced run — per-layer metrics obtained from outside the crates by
//! timing calls into each layer's public functions.  Definitions, bounds
//! and how to read the output: `benchmark/README.md`; the contract the
//! driver holds it to: `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path examples/e2e_bench/Cargo.toml -- --smoke
//! ```
//!
//! One invocation is one run of one workload: fixed-size reps of the same
//! seed-derived inputs, repeated until `--seconds` have passed.  The last
//! line of standard output is the result as one JSON object.

mod alloc;
mod spans;
mod sut;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use sut::{Load, Rig, Seeds, Variant, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Plain reps per block of a `--trace 0` run, and the fewest reps it reports
/// from whatever `--seconds`: each block yields one ratio of the fastest
/// rep to the fastest host reference beside it.
const BLOCK: usize = 8;

/// What the host reference takes on the recording host when it is quiet;
/// scales `norm_tx_per_s` so that it reads as transactions per second there.
const REF_NOMINAL_S: f64 = 0.0075;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&Workload, bool)> = match (&args.workload, args.smoke) {
        (Some(name), _) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![(w, args.trace)],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("e2e_bench: no workload {name}; the workloads are {names:?}");
                return ExitCode::from(2);
            }
        },
        // Smoke without a workload: every workload, both passes.
        (None, true) => WORKLOADS
            .iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
        (None, false) => {
            eprintln!("e2e_bench: --workload <name> is required (or --smoke for all of them)");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for (w, trace) in runs {
        let run = Run {
            w,
            seeds: Seeds::derive(args.seed),
            // Smoke: N ÷ 50, two reps / one traced cycle, a shortened layer
            // pass; prints every metric name in under 20 s.
            n: if args.smoke { (w.n / 50).max(200) } else { w.n },
            seconds: if args.smoke { 0.0 } else { args.seconds },
            smoke: args.smoke,
            attempted: Cell::new(0),
        };
        println!(
            "workload {} seed {} n {} trace {}",
            w.name,
            args.seed,
            run.n,
            u8::from(trace)
        );
        let metrics = if trace { run.traced() } else { run.plain() };
        ok &= run.result(metrics).print();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- results ---------------------------------------------------------------

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

struct RunResult {
    /// Why the run is incorrect, if it is; the metrics are then withheld.
    error: Option<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    /// Prints one `metric <name> <unit> <value>` line per metric and the
    /// result object as the last line; returns whether the run was correct.
    fn print(&self) -> bool {
        let mut json = String::new();
        if let Some(e) = &self.error {
            eprintln!("e2e_bench: INCORRECT: {e}");
        } else {
            for m in &self.metrics {
                println!("metric {} {} {}", m.name, m.unit, m.value);
                let sep = if json.is_empty() { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                );
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.error.is_none(),
            self.attempted.max(1),
            self.failed
        );
        self.error.is_none()
    }
}

// ---- small statistics ------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (0 if empty).
fn percentile<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---- the host --------------------------------------------------------------

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used, from
/// `/proc/self/stat` at the usual 100 ticks per second.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The host-speed reference: a fixed loop with the pipeline's own resource
/// profile — small heap allocations and updates of an ordered map — that
/// calls nothing of the system under test.  This host's speed moves by 20–30 %
/// for minutes at a time (benchmark/README.md); timing the reference beside
/// every rep lets a run report throughput relative to the speed the host had
/// while it ran.
fn host_reference() -> usize {
    let mut total = 0;
    let mut map = BTreeMap::new();
    for i in 0..100_000u64 {
        let v: Vec<u64> = (0..(i % 7 + 1)).collect();
        total += v.len();
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), v);
        if map.len() > 4096 {
            map.pop_first();
        }
    }
    total
}

// ---- one run ---------------------------------------------------------------

/// One plain rep's times and the host reference timed just before it.
struct Pair {
    ref_s: f64,
    setup_s: f64,
    wall_s: f64,
}

struct Run<'a> {
    w: &'a Workload,
    seeds: Seeds,
    n: usize,
    seconds: f64,
    smoke: bool,
    /// Transactions issued by every rep of the workload so far.
    attempted: Cell<usize>,
}

struct Rep {
    rig: Rig,
    outcome: sut::Outcome,
    digest: u64,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl Run<'_> {
    /// A fresh cluster and inputs for one rep.
    fn rig(&self, variant: Variant) -> Rig {
        Rig::new(self.w, &self.seeds, self.n, variant)
    }

    /// Set-up as a user pays it: topology + `ClusterSpec::build` +
    /// generator / Zipf construction, after a fixed warm-up of N/20
    /// transactions through the same pipeline on a throwaway cluster.
    fn setup(&self, variant: Variant) -> Rig {
        let mut warm = Rig::new(self.w, &self.seeds, self.n / 20, Variant::default());
        std::hint::black_box(sut::run(&mut warm));
        self.rig(variant)
    }

    /// One rep: set-up (`warm`: with its warm-up), then the timed region —
    /// `drive`, by default the one driver call plus its check — then the
    /// correctness gate.
    fn rep_with(
        &self,
        variant: Variant,
        warm: bool,
        drive: impl FnOnce(&mut Rig) -> sut::Outcome,
    ) -> Result<Rep, String> {
        let (mut rig, setup_s) = timed(|| {
            if warm {
                self.setup(variant)
            } else {
                self.rig(variant)
            }
        });
        self.attempted.set(self.attempted.get() + self.n);
        let cpu = cpu_seconds();
        let (outcome, wall_s) = timed(|| drive(&mut rig));
        let cpu_s = cpu_seconds() - cpu;
        sut::gate(&rig, &outcome)?;
        let digest = sut::digest(&outcome.history);
        Ok(Rep {
            rig,
            outcome,
            digest,
            setup_s,
            wall_s,
            cpu_s,
        })
    }

    fn rep(&self, variant: Variant, warm: bool) -> Result<Rep, String> {
        self.rep_with(variant, warm, sut::run)
    }

    /// Same seed, same inputs: every rep must produce the same schedule.
    fn expect_digest(&self, what: &str, rep: &Rep, digest: u64) -> Result<(), String> {
        if rep.digest == digest {
            return Ok(());
        }
        Err(format!(
            "{what} rep's history digest {:#018x} is not {digest:#018x}",
            rep.digest
        ))
    }

    /// The run's result: its metrics, or why it is incorrect.  A rep that
    /// fails the gate counts whole: nothing it did is trusted.
    fn result(&self, metrics: Result<Vec<Metric>, String>) -> RunResult {
        let (error, failed, metrics) = match metrics {
            Ok(metrics) => (None, 0, metrics),
            Err(e) => (Some(e), self.n, vec![]),
        };
        RunResult {
            error,
            attempted: self.attempted.get(),
            failed,
            metrics,
        }
    }

    /// `--trace 0`: plain reps, each beside a host reference, until
    /// `--seconds` have passed; then the end-to-end metrics.
    fn plain(&self) -> Result<Vec<Metric>, String> {
        let start = Instant::now();
        let min_reps = if self.smoke { 2 } else { BLOCK };
        let mut pairs: Vec<Pair> = Vec::new();
        let mut first: Option<(u64, sut::Facts, sut::ReportFacts)> = None;
        while pairs.len() < min_reps || start.elapsed().as_secs_f64() < self.seconds {
            let (_, ref_s) = timed(|| std::hint::black_box(host_reference()));
            let rep = self.rep(Variant::default(), true)?;
            match &first {
                // The first rep's history gives the exact metrics.
                None => {
                    let facts = sut::facts(&rep.rig, &rep.outcome.history);
                    let report = sut::report(&rep.outcome);
                    sut::gate_facts(self.w, &facts, &report)?;
                    first = Some((rep.digest, facts, report));
                }
                Some((digest, ..)) => self.expect_digest("a later", &rep, *digest)?,
            }
            pairs.push(Pair {
                ref_s,
                setup_s: rep.setup_s,
                wall_s: rep.wall_s,
            });
        }
        let (digest, facts, report) = first.expect("at least one rep ran");

        // The estimator.  Noise only ever adds time, so within a block of
        // consecutive reps the fastest rep and the fastest reference are the
        // ones least disturbed; their ratio cancels the speed the host had
        // during the block; the median over the run's blocks drops the
        // blocks a burst spoiled all the same.
        let whole_blocks = (pairs.len() / BLOCK).max(1) * BLOCK;
        let blocks = || pairs[..whole_blocks.min(pairs.len())].chunks(BLOCK);
        let fastest = |block: &[Pair], pick: fn(&Pair) -> f64| {
            block.iter().map(pick).fold(f64::INFINITY, f64::min)
        };
        let in_nominal_s = |pick: fn(&Pair) -> f64| {
            let ratios: Vec<f64> = blocks()
                .map(|b| fastest(b, pick) / fastest(b, |p| p.ref_s))
                .collect();
            median(&ratios) * REF_NOMINAL_S
        };
        let wall_s = in_nominal_s(|p| p.wall_s);
        let setup_s = in_nominal_s(|p| p.setup_s);

        println!(
            "reps {} of {} tx; reads {} writes {}; letters {}; rounds/read {} versions/read {}; \
             digest {digest:#018x}",
            pairs.len(),
            self.n,
            facts.read_latency.len(),
            facts.write_latency.len(),
            report.letters,
            report.mean_rounds,
            report.mean_versions,
        );
        // Non-gating diagnostics beside the estimators.
        let walls = sorted(pairs.iter().map(|p| p.wall_s).collect());
        let refs = sorted(pairs.iter().map(|p| p.ref_s).collect());
        let setups: Vec<f64> = pairs.iter().map(|p| p.setup_s).collect();
        println!(
            "rep wall s: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}; raw tx/s: fastest {:.0} \
             median {:.0}",
            walls[0],
            percentile(&walls, 25.0),
            median(&walls),
            percentile(&walls, 75.0),
            walls[walls.len() - 1],
            self.n as f64 / walls[0],
            self.n as f64 / median(&walls),
        );
        println!(
            "host reference ms: min {:.3} median {:.3} max {:.3} (nominal {:.3}); blocks {}; raw \
             set-up ms: median {:.3}",
            refs[0] * 1e3,
            median(&refs) * 1e3,
            refs[refs.len() - 1] * 1e3,
            REF_NOMINAL_S * 1e3,
            blocks().count(),
            median(&setups) * 1e3,
        );
        println!(
            "vticks: read p50 {} p99 {} max {}; write p50 {} p99 {} max {}",
            percentile(&facts.read_latency, 50.0),
            percentile(&facts.read_latency, 99.0),
            percentile(&facts.read_latency, 100.0),
            percentile(&facts.write_latency, 50.0),
            percentile(&facts.write_latency, 99.0),
            percentile(&facts.write_latency, 100.0),
        );
        let metric = |name, unit, value| Metric { name, unit, value };
        Ok(vec![
            metric("norm_tx_per_s", "1/s", self.n as f64 / wall_s),
            metric("setup_s", "s", setup_s),
            metric("peak_rss_mib", "MiB", peak_rss_mib()),
            metric("read_mean_vticks", "vticks", mean(&facts.read_latency)),
            metric(
                "read_p99_vticks",
                "vticks",
                percentile(&facts.read_latency, 99.0) as f64,
            ),
            metric("write_mean_vticks", "vticks", mean(&facts.write_latency)),
        ])
    }
}

// ---- the traced run --------------------------------------------------------

/// Every per-layer metric a `--trace 1` run prints, in print order.  Layer =
/// crate; `workload.*` is snow-workload, `sim.*` snow-sim, `protocols.*`
/// snow-protocols, `checker.*` snow-checker, `obs.*` snow-obs; `host.*` and
/// `trace.*` are the process and the benchmark's own tracing.
const PER_LAYER: [(&str, &str); 55] = [
    ("workload.gen_ns_per_tx", "ns"),
    ("workload.gen_useful_ratio", "ratio"),
    ("workload.waves_per_ktx", "count"),
    ("workload.inject_lag_p99_vticks", "vticks"),
    ("workload.report_ns_per_tx", "ns"),
    ("sim.run_ns_per_tx", "ns"),
    ("sim.invoke_ns_per_tx", "ns"),
    ("sim.drain_ns_per_tx", "ns"),
    ("sim.history_ns_per_tx", "ns"),
    ("sim.engine_ns_per_tx", "ns"),
    ("sim.steps_per_tx", "count"),
    ("sim.msgs_per_tx", "count"),
    ("sim.queue_depth_p50", "count"),
    ("sim.queue_depth_peak", "count"),
    ("sim.flood_1k_ns_per_step", "ns"),
    ("sim.flood_100k_ns_per_step", "ns"),
    ("sim.par.epochs_per_ktx", "count"),
    ("sim.par.stall_ratio", "ratio"),
    ("sim.par.cross_shard_send_ratio", "ratio"),
    ("sim.par.cpu_over_wall", "ratio"),
    ("sim.par.speedup", "ratio"),
    ("sim.fault.ns_per_committed_tx", "ns"),
    ("sim.fault.aborted_ratio", "ratio"),
    ("sim.fault.drops_per_ktx", "count"),
    ("sim.fault.checkers_agree", "count"),
    ("protocols.build_ms", "ms"),
    ("protocols.handler_ns_per_tx", "ns"),
    ("protocols.rounds_per_read", "count"),
    ("protocols.versions_per_read", "count"),
    ("protocols.alga.handler_ns_per_tx", "ns"),
    ("protocols.algb.handler_ns_per_tx", "ns"),
    ("protocols.algc.handler_ns_per_tx", "ns"),
    ("protocols.eiger.handler_ns_per_tx", "ns"),
    ("protocols.blocking.handler_ns_per_tx", "ns"),
    ("protocols.simple.handler_ns_per_tx", "ns"),
    ("checker.stream_inrun_ns_per_tx", "ns"),
    ("checker.stream_ns_per_tx", "ns"),
    ("checker.posthoc_ns_per_tx", "ns"),
    ("checker.graph_ns_per_tx", "ns"),
    ("checker.report_ns_per_tx", "ns"),
    ("checker.peak_live_window", "count"),
    ("checker.edges_per_tx", "count"),
    ("checker.window_resolves", "count"),
    ("checker.stream_panics", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.events_per_tx", "count"),
    ("obs.fold_ns_per_event", "ns"),
    ("obs.perfetto_ns_per_event", "ns"),
    ("host.raw_tx_per_s", "1/s"),
    ("host.ref_ms", "ms"),
    ("host.allocs_per_tx", "count"),
    ("host.alloc_bytes_per_tx", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.spans_per_tx", "count"),
];

/// The samples of a traced run: one value per metric per cycle (the layer
/// pass runs once); the run reports each metric's median.
#[derive(Default)]
struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a metric"
        );
        self.values.entry(name).or_default().push(value);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Run<'_> {
    /// `--trace 1`: the layer pass once, then traced cycles until
    /// `--seconds` have passed; every per-layer metric, the median over the
    /// cycles.
    fn traced(&self) -> Result<Vec<Metric>, String> {
        let start = Instant::now();
        let mut out = Samples::default();
        self.layer_pass(&mut out)?;
        let mut cycles = 0;
        while cycles == 0 || start.elapsed().as_secs_f64() < self.seconds {
            self.cycle(cycles == 0, &mut out)?;
            cycles += 1;
        }
        println!("traced cycles {cycles} of {} tx", self.n);
        Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let samples = out.values.get(name).unwrap_or_else(|| {
                    panic!("the traced run measured no {name}: a bug in the benchmark")
                });
                Metric {
                    name,
                    unit,
                    value: median(samples),
                }
            })
            .collect())
    }

    /// The `*` metrics: single layers on inputs of their own, the same in
    /// every workload's traced run.
    fn layer_pass(&self, out: &mut Samples) -> Result<(), String> {
        // The event-queue core alone, at a small and a large working set.
        let (samples, budget_s) = if self.smoke { (1, 0.01) } else { (3, 0.2) };
        for (name, width) in [
            ("sim.flood_1k_ns_per_step", 1_000),
            ("sim.flood_100k_ns_per_step", 100_000),
        ] {
            let best = (0..samples)
                .map(|_| {
                    let (mut wall_s, mut steps) = (0.0, 0u64);
                    while wall_s < budget_s {
                        let flood = sut::Flood::new(width, &self.seeds);
                        let (s, t) = timed(|| flood.run());
                        wall_s += t;
                        steps += s;
                    }
                    wall_s * 1e9 / steps as f64
                })
                .fold(f64::INFINITY, f64::min);
            out.put(name, best);
        }

        // The fault path: closed-b-wan3 under 1 % drop + 1 % duplicate.
        let w = &WORKLOADS[0];
        let n = if self.smoke { 400 } else { 10_000 };
        let faulty = |variant| {
            let mut rig = Rig::new(w, &self.seeds, n, variant);
            let (outcome, wall_s) = timed(|| sut::run_unchecked(&mut rig));
            if outcome.completed != outcome.issued {
                return Err(format!(
                    "fault pass: {} of {} transactions were never retired",
                    outcome.issued - outcome.completed,
                    outcome.issued
                ));
            }
            Ok((rig, outcome, wall_s))
        };
        let (rig, outcome, wall_s) = faulty(Variant {
            faulty: true,
            ..Variant::default()
        })?;
        let facts = sut::facts(&rig, &outcome.history);
        let committed = facts.read_latency.len() + facts.write_latency.len();
        out.put(
            "sim.fault.ns_per_committed_tx",
            ratio(wall_s * 1e9, committed as f64),
        );
        out.put("sim.fault.aborted_ratio", facts.aborted as f64 / n as f64);
        let (mut observed_rig, observed, _) = faulty(Variant {
            faulty: true,
            observed: true,
            ..Variant::default()
        })?;
        if sut::digest(&observed.history) != sut::digest(&outcome.history) {
            return Err("fault pass: observing the run changed its schedule".into());
        }
        let drops = sut::fold(&observed_rig.drain_events()).fault_drops;
        out.put("sim.fault.drops_per_ktx", drops as f64 * 1e3 / n as f64);
        let graph = sut::check_graph(&outcome.history);
        let stream = sut::check_stream(&outcome.history).map(|(verdict, _)| verdict);
        out.put(
            "sim.fault.checkers_agree",
            f64::from(graph.is_some() && graph == stream),
        );

        // The full SnowReport on a small history (it is quadratic).
        let n = if self.smoke { 256 } else { 2_048 };
        let mut rig = Rig::new(w, &self.seeds, n, Variant::default());
        let outcome = sut::run(&mut rig);
        sut::gate(&rig, &outcome).map_err(|e| format!("report pass: {e}"))?;
        let (letters, report_s) = timed(|| sut::snow_report(&outcome.history));
        if letters != "SN-W" {
            return Err(format!(
                "report pass: SnowReport observed {letters}, AlgB claims SN-W"
            ));
        }
        out.put("checker.report_ns_per_tx", report_s * 1e9 / n as f64);

        // The six protocols' handlers on one common mix.
        let count = if self.smoke { 500 } else { 10_000 };
        for (name, mut replay, plan) in sut::Replay::each_protocol(count, &self.seeds) {
            let (responded, replay_s) = timed(|| replay.run(plan));
            if responded != count {
                return Err(format!(
                    "{name}: {responded} of {count} replayed transactions responded"
                ));
            }
            out.put(name, replay_s * 1e9 / count as f64);
        }
        Ok(())
    }

    /// One traced cycle: a plain rep as the base, then the span rep, the
    /// observed rep, the counted rep, and each layer alone on the same
    /// inputs or the plain rep's history.
    fn cycle(&self, first: bool, out: &mut Samples) -> Result<(), String> {
        let n = self.n as f64;
        let plain = self.rep(Variant::default(), false)?;
        let history = &plain.outcome.history;
        out.put("host.raw_tx_per_s", n / plain.wall_s);
        let (_, ref_s) = timed(|| std::hint::black_box(host_reference()));
        out.put("host.ref_ms", ref_s * 1e3);

        // The sharded twin: the same work through the epoch barrier and the
        // cross-shard exchange.  Its schedule is its own (the driver invokes
        // a round at one tick, which one core stamps in sequence and shards
        // in parallel), so it is gated but not compared with the plain rep.
        if self.w.twin_shards > 0 {
            let sharded = Variant {
                sharded: true,
                ..Variant::default()
            };
            let twin = self
                .rep(sharded, false)
                .map_err(|e| format!("sharded twin: {e}"))?;
            out.put("sim.par.speedup", plain.wall_s / twin.wall_s);
            out.put("sim.par.cpu_over_wall", twin.cpu_s / twin.wall_s);
            let mut observed = self.rep(
                Variant {
                    observed: true,
                    ..sharded
                },
                false,
            )?;
            self.expect_digest("the observed twin", &observed, twin.digest)?;
            let e = sut::fold(&observed.rig.drain_events());
            out.put("sim.par.epochs_per_ktx", e.epochs as f64 * 1e3 / n);
            out.put(
                "sim.par.stall_ratio",
                ratio(e.epoch_stalls as f64, e.epochs as f64),
            );
            let cross = ratio(e.cross_shard_sends as f64, e.sends as f64);
            out.put("sim.par.cross_shard_send_ratio", cross);
        } else {
            for name in [
                "sim.par.speedup",
                "sim.par.cpu_over_wall",
                "sim.par.epochs_per_ktx",
                "sim.par.stall_ratio",
                "sim.par.cross_shard_send_ratio",
            ] {
                out.put(name, 0.0);
            }
        }

        // The span rep.
        let (_, build_s) = timed(|| self.w.build_cluster(&self.seeds, Variant::default()));
        out.put("protocols.build_ms", build_s * 1e3);
        let capacity = match self.w.load {
            Load::Closed { per_round } => (self.n / per_round + 2) * 6 + 16,
            Load::Open { .. } => self.n * 3 + 16,
        };
        let mut rec = spans::Recorder::new(capacity);
        let mut traced = None;
        let span = self.rep_with(Variant::default(), false, |rig| {
            let (outcome, extras) = sut::run_spanned(rig, &mut rec);
            traced = Some(extras);
            outcome
        })?;
        self.expect_digest("the span", &span, plain.digest)?;
        let traced = traced.expect("the span rep ran");
        let self_times = rec.self_times();
        let of = |name: &str| self_times.get(name).copied().unwrap_or_default();
        let per_tx = |name: &str| of(name).ns as f64 / n;
        out.put("trace.overhead_ratio", span.wall_s / plain.wall_s);
        out.put(
            "trace.unattributed_ratio",
            of("harness.loop").ns as f64 / (span.wall_s * 1e9),
        );
        let span_count: u64 = self_times.values().map(|s| s.count).sum();
        out.put("trace.spans_per_tx", span_count as f64 / n);
        out.put(
            "workload.waves_per_ktx",
            of("sim.run").count as f64 * 1e3 / n,
        );
        out.put("workload.gen_useful_ratio", n / traced.generated as f64);
        out.put("workload.report_ns_per_tx", per_tx("workload.report"));
        out.put("sim.run_ns_per_tx", per_tx("sim.run"));
        out.put("sim.invoke_ns_per_tx", per_tx("sim.invoke"));
        out.put("sim.drain_ns_per_tx", per_tx("sim.drain"));
        out.put("sim.history_ns_per_tx", per_tx("sim.history"));
        out.put(
            "checker.stream_inrun_ns_per_tx",
            per_tx("checker.ingest") + per_tx("checker.advance") + per_tx("checker.finish"),
        );
        if first && !self.smoke {
            let path = format!("benchmark/out/trace-{}.json", self.w.name);
            let written = std::fs::create_dir_all("benchmark/out")
                .and_then(|()| std::fs::write(&path, rec.chrome_trace_json(self.w.name)));
            match written {
                Ok(()) => println!("spans {span_count} -> {path}"),
                Err(e) => eprintln!("e2e_bench: could not write {path}: {e}"),
            }
        }
        drop((rec, span));

        // The observed rep: exact event-derived counts.
        let mut observed = self.rep(
            Variant {
                observed: true,
                ..Variant::default()
            },
            false,
        )?;
        self.expect_digest("the observed", &observed, plain.digest)?;
        let events = observed.rig.drain_events();
        let (e, fold_s) = timed(|| sut::fold(&events));
        // The export is timed on a bounded prefix: on a whole rep's stream
        // it takes longer than the rep.
        let prefix = &events[..events.len().min(100_000)];
        let (_, perfetto_s) = timed(|| sut::perfetto(prefix));
        out.put("obs.overhead_ratio", observed.wall_s / plain.wall_s);
        out.put("obs.events_per_tx", e.events as f64 / n);
        out.put(
            "obs.fold_ns_per_event",
            ratio(fold_s * 1e9, e.events as f64),
        );
        out.put(
            "obs.perfetto_ns_per_event",
            ratio(perfetto_s * 1e9, prefix.len() as f64),
        );
        out.put("sim.steps_per_tx", e.steps as f64 / n);
        out.put("sim.msgs_per_tx", e.sends as f64 / n);
        out.put("sim.queue_depth_p50", e.queue_depth_p50 as f64);
        out.put("sim.queue_depth_peak", e.queue_depth_peak as f64);
        drop((events, observed));

        // The counted rep: allocator counting on, sink off.
        let mut counts = (0, 0);
        let counted = self.rep_with(Variant::default(), false, |rig| {
            let (outcome, allocs, bytes) = alloc::counted(|| sut::run(rig));
            counts = (allocs, bytes);
            outcome
        })?;
        self.expect_digest("the counted", &counted, plain.digest)?;
        out.put("host.allocs_per_tx", counts.0 as f64 / n);
        out.put("host.alloc_bytes_per_tx", counts.1 as f64 / n);
        drop(counted);

        // The generator alone, and the protocol handlers alone.
        let mut rig = self.rig(Variant::default());
        let (_, gen_s) = timed(|| rig.generate_only());
        out.put("workload.gen_ns_per_tx", gen_s * 1e9 / n);
        let (mut replay, plan) = sut::Replay::of_workload(self.w, history);
        let (responded, replay_s) = timed(|| replay.run(plan));
        if responded != self.n {
            return Err(format!(
                "handler replay: {responded} of {} transactions responded",
                self.n
            ));
        }
        out.put("protocols.handler_ns_per_tx", replay_s * 1e9 / n);
        out.put(
            "sim.engine_ns_per_tx",
            per_tx("sim.run") - replay_s * 1e9 / n,
        );

        // Each checker alone on the plain rep's history; all must agree
        // with the run's own verdict.
        let (stream, stream_s) = timed(|| sut::check_stream(history));
        let (posthoc, posthoc_s) = timed(|| sut::check_posthoc(history));
        let (graph, graph_s) = timed(|| sut::check_graph(history));
        out.put("checker.stream_ns_per_tx", stream_s * 1e9 / n);
        out.put("checker.posthoc_ns_per_tx", posthoc_s * 1e9 / n);
        out.put("checker.graph_ns_per_tx", graph_s * 1e9 / n);
        out.put("checker.stream_panics", f64::from(stream.is_none()));
        for (name, verdict) in [
            ("stream", stream.map(|(v, _)| v)),
            ("check_auto", posthoc),
            ("graph", graph),
        ] {
            if verdict.is_some_and(|v| v != sut::Verdict::Serializable) {
                return Err(format!("the standalone {name} checker says {verdict:?}"));
            }
        }
        let counters = traced.stream.or(stream.map(|(_, f)| f)).unwrap_or_default();
        out.put("checker.peak_live_window", counters.peak_live_window as f64);
        out.put("checker.edges_per_tx", counters.edges_added as f64 / n);
        out.put("checker.window_resolves", counters.window_resolves as f64);

        // Exact facts of the schedule.
        let facts = sut::facts(&plain.rig, history);
        let report = sut::report(&plain.outcome);
        sut::gate_facts(self.w, &facts, &report)?;
        out.put(
            "workload.inject_lag_p99_vticks",
            percentile(&facts.inject_lag, 99.0) as f64,
        );
        out.put("protocols.rounds_per_read", report.mean_rounds);
        out.put("protocols.versions_per_read", report.mean_versions);
        Ok(())
    }
}
