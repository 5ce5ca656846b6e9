//! The one adapter between the benchmark and the system under test: every
//! call into the workspace is in this file, through the front doors
//! ROADMAP item 2 keeps — `ClusterSpec`, the `Cluster` trait's methods,
//! `WorkloadGenerator`, `WorkloadDriver::run_checked_mode`,
//! `drive_open_loop`, `StreamChecker`, `check_auto`, `GraphChecker`,
//! `SnowReport`, `deploy_any`, `fold_events`/`perfetto_json` — and never a
//! `build_cluster_*` wrapper, `snow::runtime` or `snow_bench`.  A later
//! change to those doors breaks this file and nothing else of the
//! benchmark, and tier-1 `cargo test` says so at compile time.
//!
//! The crates receive only generated inputs: every seed below is derived
//! from the benchmark's `--seed` by [`Seeds::derive`].

use crate::spans::Recorder;
use snow::checker::{
    check_auto, GraphChecker, HistoryMetrics, LatencyStats, SnowChecker, SnowReport, StreamChecker,
    Verdict as SutVerdict,
};
use snow::core::{
    ClientId, Effects, History, ObjectId, Process, ProcessId, ReadOutcome, ServerId, SystemConfig,
    TxId, TxKind, TxOutcome, TxRecord, TxSpec,
};
use snow::obs::{fold_events, perfetto_json};
use snow::protocols::{
    deploy_any, AnyMsg, AnyNode, Cluster, ClusterSpec, ExecutorKind, ProtocolKind, SchedulerKind,
    ShardEvent,
};
use snow::sim::{
    EndpointSel, FaultAction, FaultRegion, FaultSchedule, LatencyScheduler, SimMessage, Simulation,
    Topology,
};
use snow::workload::{
    arrival_schedule, drive_open_loop, CheckMode, OpenLoopSpec, WorkloadDriver, WorkloadGenerator,
    WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ---- workloads -------------------------------------------------------------

#[derive(Clone, Copy)]
enum Net {
    Wan3,
    SingleDc,
    Latency { min: u64, max: u64 },
}

#[derive(Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: rounds of `per_round` concurrent transactions, each
    /// round waiting for the last; checked in-run by the streaming checker.
    Closed { per_round: usize },
    /// Open loop: Poisson arrivals at `rate` per kilotick regardless of
    /// completions; checked post hoc by `check_auto`.
    Open { rate: u64 },
}

pub struct Workload {
    pub name: &'static str,
    protocol: ProtocolKind,
    servers: u32,
    writers: u32,
    readers: u32,
    net: Net,
    /// Shards of the workload's sharded twin (0 = it has none): the same
    /// workload on `ExecutorKind::ParallelSim`, run in the traced pass only.
    pub twin_shards: usize,
    pub load: Load,
    read_fraction: f64,
    objects_per_read: usize,
    objects_per_write: usize,
    zipf_exponent: f64,
    /// Transactions per rep: a fixed count, never a duration.
    pub n: usize,
}

/// The mix is `WorkloadSpec::write_heavy`'s, spelled out so the benchmark's
/// inputs do not move when a preset does.
const WIDE_B_DC: Workload = Workload {
    name: "wide-b-dc",
    protocol: ProtocolKind::AlgB,
    servers: 16,
    writers: 64,
    readers: 64,
    net: Net::SingleDc,
    twin_shards: 2,
    load: Load::Closed { per_round: 128 },
    read_fraction: 0.5,
    objects_per_read: 2,
    objects_per_write: 2,
    zipf_exponent: 0.6,
    n: 8_000,
};

/// Rep sizes are chosen so that a rep's timed region is 0.15–0.3 s here:
/// short enough that some rep of a run dodges the host's noise bursts, which
/// is what makes the fastest rep repeatable (benchmark/README.md).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "closed-b-wan3",
        servers: 8,
        writers: 4,
        readers: 4,
        net: Net::Wan3,
        twin_shards: 0,
        load: Load::Closed { per_round: 8 },
        n: 20_000,
        ..WIDE_B_DC
    },
    WIDE_B_DC,
    Workload {
        name: "open-c-read",
        protocol: ProtocolKind::AlgC,
        servers: 8,
        writers: 2,
        readers: 6,
        net: Net::Latency { min: 1, max: 16 },
        twin_shards: 0,
        load: Load::Open { rate: 50 },
        read_fraction: 0.96,
        objects_per_read: 4,
        objects_per_write: 2,
        zipf_exponent: 0.99,
        n: 10_000,
    },
];

/// The three seeds the crates receive, derived from the benchmark's seed.
#[derive(Clone, Copy)]
pub struct Seeds {
    body: u64,
    arrival: u64,
    net: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut state = seed;
        Seeds {
            body: splitmix64(&mut state),
            arrival: splitmix64(&mut state),
            net: splitmix64(&mut state),
        }
    }
}

/// Which cluster a rep runs on; the default is the workload as defined, on
/// the serial engine with the observability sink off.
#[derive(Clone, Copy, Default)]
pub struct Variant {
    /// `ClusterSpec::observed(true)`: every dispatch, send, delivery,
    /// commit and epoch barrier is recorded.
    pub observed: bool,
    /// 1 % drop + 1 % duplicate on every link for the whole run.
    pub faulty: bool,
    /// The workload's sharded twin (`twin_shards` shard threads).
    pub sharded: bool,
}

impl Workload {
    fn config(&self) -> SystemConfig {
        SystemConfig::mwmr(self.servers, self.writers, self.readers)
    }

    fn mix(&self, seeds: &Seeds) -> WorkloadSpec {
        WorkloadSpec {
            read_fraction: self.read_fraction,
            objects_per_read: self.objects_per_read,
            objects_per_write: self.objects_per_write,
            zipf_exponent: self.zipf_exponent,
            seed: seeds.body,
        }
    }

    /// Topology, `ClusterSpec` and `ClusterSpec::build`.
    pub fn build_cluster(&self, seeds: &Seeds, variant: Variant) -> Box<dyn Cluster> {
        let config = self.config();
        let spec = ClusterSpec::new(self.protocol, &config);
        let spec = match self.net {
            Net::Wan3 => spec.topology(Arc::new(Topology::wan3(&config)), seeds.net),
            Net::SingleDc => spec.topology(Arc::new(Topology::single_dc(&config)), seeds.net),
            Net::Latency { min, max } => spec.scheduler(SchedulerKind::Latency {
                seed: seeds.net,
                min,
                max,
            }),
        };
        let spec = if variant.sharded {
            spec.executor(ExecutorKind::ParallelSim {
                shards: self.twin_shards,
            })
        } else {
            spec
        };
        let spec = spec
            .max_steps(u64::MAX)
            .trace_capacity(Some(4096))
            .observed(variant.observed);
        let spec = if variant.faulty {
            let everywhere = |action| FaultRegion {
                action,
                src: EndpointSel::Any,
                dst: EndpointSel::Any,
                from: 0,
                until: u64::MAX,
                chance_pct: 1,
            };
            spec.faults(
                FaultSchedule::new(seeds.net)
                    .with_region(everywhere(FaultAction::Drop))
                    .with_region(everywhere(FaultAction::Duplicate)),
            )
        } else {
            spec
        };
        spec.build()
            .expect("the workload's configuration is valid for its protocol")
    }

    /// What the protocol claims for every READ (the paper's O relaxations),
    /// checked against what the checker observed.
    fn claim_violation(&self, r: &ReportFacts) -> Option<String> {
        let (max_rounds, max_versions) = match self.protocol {
            ProtocolKind::AlgB => (2, 1),
            _ => (u32::MAX, usize::MAX),
        };
        if !["S", "N", "W"].iter().all(|l| r.letters.contains(l)) {
            return Some(format!("observed letters {} lack S, N or W", r.letters));
        }
        if r.max_rounds > max_rounds || r.max_versions > max_versions {
            return Some(format!(
                "a READ used {} rounds / {} versions, the protocol claims at most {} / {}",
                r.max_rounds, r.max_versions, max_rounds, max_versions
            ));
        }
        None
    }
}

// ---- one rep ---------------------------------------------------------------

/// How a rig is driven: the workload's `Load` with its generated inputs.
enum Plan {
    Closed { per_round: usize },
    Open(OpenLoopSpec),
}

/// Everything one rep runs on: a fresh cluster plus the generated inputs.
pub struct Rig {
    config: SystemConfig,
    cluster: Box<dyn Cluster>,
    generator: WorkloadGenerator,
    plan: Plan,
    n: usize,
}

impl Rig {
    /// Topology + `ClusterSpec::build` + generator / Zipf / open-loop
    /// schedule parameters for `n` transactions.
    pub fn new(w: &Workload, seeds: &Seeds, n: usize, variant: Variant) -> Rig {
        let config = w.config();
        let plan = match w.load {
            Load::Closed { per_round } => Plan::Closed { per_round },
            Load::Open { rate } => Plan::Open(OpenLoopSpec {
                workload: w.mix(seeds),
                rate,
                arrivals: n,
                arrival_seed: seeds.arrival,
            }),
        };
        Rig {
            cluster: w.build_cluster(seeds, variant),
            generator: WorkloadGenerator::new(&config, w.mix(seeds)),
            config,
            plan,
            n,
        }
    }

    /// The generator alone: `n` draws, nothing issued.
    pub fn generate_only(&mut self) {
        for _ in 0..self.n {
            std::hint::black_box(self.generator.next_tx());
        }
    }

    /// The events an `observed` cluster recorded.
    pub fn drain_events(&mut self) -> Vec<ShardEvent> {
        self.cluster.drain_obs_events()
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Verdict {
    Serializable,
    NotSerializable,
    Unknown,
}

impl From<&SutVerdict> for Verdict {
    fn from(v: &SutVerdict) -> Verdict {
        match v {
            SutVerdict::Serializable(_) => Verdict::Serializable,
            SutVerdict::NotSerializable(_) => Verdict::NotSerializable,
            SutVerdict::Unknown(_) => Verdict::Unknown,
        }
    }
}

pub struct Outcome {
    pub history: History,
    pub issued: usize,
    pub completed: usize,
    pub verdict: Verdict,
}

impl Outcome {
    fn new(history: History, issued: usize, completed: usize, verdict: &SutVerdict) -> Outcome {
        Outcome {
            history,
            issued,
            completed,
            verdict: verdict.into(),
        }
    }
}

/// The timed region of a plain rep: the one driver call plus its check.
pub fn run(rig: &mut Rig) -> Outcome {
    match &rig.plan {
        Plan::Closed { per_round } => {
            let (history, report, verdict) = WorkloadDriver::new(*per_round).run_checked_mode(
                rig.cluster.as_mut(),
                &mut rig.generator,
                rig.n,
                CheckMode::Streaming,
            );
            Outcome::new(history, report.issued, report.completed, &verdict)
        }
        Plan::Open(spec) => {
            let (history, report) = drive_open_loop(rig.cluster.as_mut(), &rig.config, spec);
            let verdict = check_auto(&history);
            Outcome::new(history, report.issued, report.completed, &verdict)
        }
    }
}

/// The unchecked closed-loop driver call, for the fault pass (a faulty
/// AlgB history is convicted, so there is no verdict to gate on).
pub fn run_unchecked(rig: &mut Rig) -> Outcome {
    let Plan::Closed { per_round } = rig.plan else {
        panic!("the fault pass runs a closed-loop workload");
    };
    let (history, report) =
        WorkloadDriver::new(per_round).run(rig.cluster.as_mut(), &mut rig.generator, rig.n);
    Outcome {
        history,
        issued: report.issued,
        completed: report.completed,
        verdict: Verdict::Unknown,
    }
}

/// What the in-run streaming checker counted (exact).
#[derive(Clone, Copy, Default)]
pub struct StreamFacts {
    pub peak_live_window: usize,
    pub edges_added: u64,
    pub window_resolves: u64,
}

fn stream_facts(checker: &StreamChecker) -> StreamFacts {
    let r = checker.report();
    StreamFacts {
        peak_live_window: r.peak_live_window,
        edges_added: r.edges_added,
        window_resolves: r.window_resolves,
    }
}

/// What the span rep learnt beside its outcome.
pub struct Traced {
    /// Transactions the generator produced, issued or discarded.
    pub generated: u64,
    /// Closed loop only: the in-run checker's counters.
    pub stream: Option<StreamFacts>,
}

/// The span rep: the harness's own loop, mirroring
/// `WorkloadDriver::run_checked_mode(.., Streaming)` or `drive_open_loop` +
/// `check_auto` call for call, with a span around every call into a layer.
/// Its history digest must equal the plain rep's; if a later change to the
/// drivers makes the mirror stale, `trace.overhead_ratio` leaves 1.
pub fn run_spanned(rig: &mut Rig, rec: &mut Recorder) -> (Outcome, Traced) {
    let root = rec.enter("harness.loop");
    let traced = match &rig.plan {
        Plan::Closed { per_round } => spanned_closed(
            rig.cluster.as_mut(),
            &mut rig.generator,
            rig.n,
            *per_round,
            rec,
        ),
        Plan::Open(spec) => spanned_open(rig.cluster.as_mut(), &rig.config, spec, rec),
    };
    rec.exit(root);
    traced
}

fn spanned_drain(checker: &mut StreamChecker, cluster: &mut dyn Cluster, rec: &mut Recorder) {
    let drain = rec.time("sim.drain", || cluster.drain_commits());
    rec.time("checker.ingest", || {
        for record in drain.records {
            checker.ingest(record);
        }
    });
    rec.time("checker.advance", || {
        checker.advance_watermark(drain.inv_floor)
    });
}

fn spanned_closed(
    cluster: &mut dyn Cluster,
    generator: &mut WorkloadGenerator,
    total: usize,
    per_round: usize,
    rec: &mut Recorder,
) -> (Outcome, Traced) {
    let mut checker = StreamChecker::new();
    let mut issued = 0usize;
    let mut all_tx: Vec<TxId> = Vec::with_capacity(total);
    while issued < total {
        rec.round += 1;
        let this_round = per_round.min(total - issued);
        let batch = rec.time("workload.next_tx", || {
            let mut seen_clients = BTreeSet::new();
            let mut guard = 0usize;
            let mut batch = Vec::with_capacity(this_round);
            while batch.len() < this_round && guard < this_round * 50 {
                guard += 1;
                let tx = generator.next_tx();
                if !seen_clients.insert(tx.client) {
                    continue;
                }
                batch.push((tx.client, tx.spec));
            }
            batch
        });
        issued += batch.len();
        let now = cluster.now();
        all_tx.extend(rec.time("sim.invoke", || cluster.invoke_batch(now, batch)));
        rec.time("sim.run", || cluster.run_until_quiescent());
        spanned_drain(&mut checker, cluster, rec);
    }
    let history = rec.time("sim.history", || cluster.history());
    let completed = all_tx.iter().filter(|tx| cluster.is_complete(**tx)).count();
    spanned_drain(&mut checker, cluster, rec);
    let verdict = rec.time("checker.finish", || {
        for record in history.records.iter().filter(|r| !r.is_complete()) {
            checker.ingest_incomplete(record.clone());
        }
        checker.finish()
    });
    let (reads, writes) = generator.counts();
    (
        Outcome::new(history, issued, completed, &verdict),
        Traced {
            generated: reads + writes,
            stream: Some(stream_facts(&checker)),
        },
    )
}

fn spanned_open(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    rec: &mut Recorder,
) -> (Outcome, Traced) {
    struct Meta {
        client: ClientId,
        scheduled_at: u64,
        is_read: bool,
    }
    type Queues = BTreeMap<ClientId, VecDeque<(u64, TxSpec)>>;
    fn inject(
        cluster: &mut dyn Cluster,
        client: ClientId,
        queues: &mut Queues,
        meta: &mut HashMap<TxId, Meta>,
        rec: &mut Recorder,
    ) -> Option<TxId> {
        let (at, spec) = queues.get_mut(&client)?.pop_front()?;
        let is_read = spec.kind() == TxKind::Read;
        let tx = rec.time("sim.invoke", || cluster.invoke_at(at, client, spec));
        meta.insert(
            tx,
            Meta {
                client,
                scheduled_at: at,
                is_read,
            },
        );
        Some(tx)
    }

    let schedule = rec.time("workload.next_tx", || arrival_schedule(config, spec));
    let issued = schedule.len();
    let mut queues: Queues = BTreeMap::new();
    for arrival in schedule {
        queues
            .entry(arrival.client)
            .or_default()
            .push_back((arrival.at, arrival.spec));
    }
    let mut meta: HashMap<TxId, Meta> = HashMap::with_capacity(issued);
    let clients: Vec<ClientId> = queues.keys().copied().collect();
    let mut active: Vec<TxId> = clients
        .iter()
        .filter_map(|&c| inject(cluster, c, &mut queues, &mut meta, rec))
        .collect();
    while !active.is_empty() {
        rec.round += 1;
        if rec
            .time("sim.run", || cluster.run_until_any_complete(&active))
            .is_none()
        {
            break;
        }
        let mut next_active = Vec::with_capacity(active.len());
        for tx in active {
            if cluster.is_complete(tx) {
                let client = meta[&tx].client;
                if let Some(new_tx) = inject(cluster, client, &mut queues, &mut meta, rec) {
                    next_active.push(new_tx);
                }
            } else {
                next_active.push(tx);
            }
        }
        active = next_active;
    }
    let history = rec.time("sim.history", || cluster.history());
    // The driver's report: per-transaction latency from scheduled arrival,
    // looked up in the history one transaction at a time.
    let completed = rec.time("workload.report", || {
        let mut latencies = Vec::with_capacity(issued);
        let mut read_latencies = Vec::new();
        for (tx, m) in &meta {
            let Some(responded_at) = history.get(*tx).and_then(|r| r.responded_at) else {
                continue;
            };
            let latency = responded_at.saturating_sub(m.scheduled_at);
            latencies.push(latency);
            if m.is_read {
                read_latencies.push(latency);
            }
        }
        std::hint::black_box((
            LatencyStats::from_samples(&latencies),
            LatencyStats::from_samples(&read_latencies),
        ));
        latencies.len()
    });
    let verdict = rec.time("checker.posthoc", || check_auto(&history));
    (
        Outcome::new(history, issued, completed, &verdict),
        Traced {
            generated: issued as u64,
            stream: None,
        },
    )
}

// ---- what a history says ---------------------------------------------------

/// FNV-1a over `(tx id, INV, RESP, kind)` of every record, in history
/// order: equal digests mean the reps produced the same schedule.
pub fn digest(history: &History) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &history.records {
        mix(r.tx_id.0);
        mix(r.invoked_at);
        mix(r.responded_at.unwrap_or(u64::MAX));
        mix(u64::from(r.kind() == TxKind::Read));
    }
    h
}

/// Exact, seed-pure facts of one rep's history.  Latencies are in engine
/// virtual ticks, sorted ascending: RESP − INV in a closed loop, RESP −
/// *scheduled arrival* in an open loop (so client-side queueing counts).
pub struct Facts {
    pub incomplete: usize,
    pub aborted: usize,
    pub read_latency: Vec<u64>,
    pub write_latency: Vec<u64>,
    /// Open loop: INV − scheduled arrival, how late injection ran.
    pub inject_lag: Vec<u64>,
}

pub fn facts(rig: &Rig, history: &History) -> Facts {
    // Open loop: a client's arrivals are injected FIFO with one
    // outstanding, so its k-th record by INV is its k-th scheduled arrival.
    let mut scheduled: BTreeMap<ClientId, VecDeque<u64>> = BTreeMap::new();
    if let Plan::Open(spec) = &rig.plan {
        for arrival in arrival_schedule(&rig.config, spec) {
            scheduled
                .entry(arrival.client)
                .or_default()
                .push_back(arrival.at);
        }
    }
    let mut f = Facts {
        incomplete: history.incomplete_count(),
        aborted: 0,
        read_latency: Vec::new(),
        write_latency: Vec::new(),
        inject_lag: Vec::new(),
    };
    let mut in_inv_order: Vec<&TxRecord> = history.records.iter().collect();
    in_inv_order.sort_by_key(|r| (r.invoked_at, r.tx_id));
    for r in in_inv_order {
        let due = scheduled.get_mut(&r.client).and_then(|q| q.pop_front());
        if let Some(due) = due {
            f.inject_lag.push(r.invoked_at.saturating_sub(due));
        }
        let Some(responded_at) = r.responded_at else {
            continue;
        };
        if r.outcome.as_ref().is_some_and(|o| o.is_aborted()) {
            f.aborted += 1;
            continue;
        }
        let latency = responded_at.saturating_sub(due.unwrap_or(r.invoked_at));
        match r.kind() {
            TxKind::Read => f.read_latency.push(latency),
            TxKind::Write => f.write_latency.push(latency),
        }
    }
    f.read_latency.sort_unstable();
    f.write_latency.sort_unstable();
    f.inject_lag.sort_unstable();
    f
}

/// What the checker observed of the paper's properties.  `SnowReport::
/// evaluate` is quadratic in the history (it counts READ/WRITE overlaps
/// pairwise: 70 s on 60 000 transactions), so the gate uses its linear
/// parts — `SnowChecker::check_non_blocking` for N and `HistoryMetrics::
/// from_history` for rounds and versions — S being the run's own verdict
/// and W that no WRITE is left incomplete; see [`snow_report`].
pub struct ReportFacts {
    pub letters: String,
    pub mean_rounds: f64,
    pub mean_versions: f64,
    max_rounds: u32,
    max_versions: usize,
}

pub fn report(outcome: &Outcome) -> ReportFacts {
    let history = &outcome.history;
    let m = HistoryMetrics::from_history(history);
    let (max_rounds, max_versions) = (m.max_rounds(), m.max_versions());
    let held = [
        ('S', outcome.verdict == Verdict::Serializable),
        ('N', SnowChecker::new().check_non_blocking(history).holds),
        ('O', max_rounds <= 1 && max_versions <= 1),
        ('W', history.writes().count() > 0 && m.incomplete == 0),
    ];
    ReportFacts {
        letters: held
            .iter()
            .map(|&(letter, holds)| if holds { letter } else { '-' })
            .collect(),
        mean_rounds: m.mean_rounds,
        mean_versions: m.mean_versions,
        max_rounds,
        max_versions,
    }
}

/// The full `SnowReport::evaluate`, for the layer pass to time on a small
/// history; returns the letters it observed.
pub fn snow_report(history: &History) -> String {
    SnowReport::evaluate("e2e_bench", history)
        .observed
        .to_string()
}

/// The correctness gate of one rep: everything issued was retired and
/// committed, the in-run verdict is `Serializable`.
pub fn gate(rig: &Rig, outcome: &Outcome) -> Result<(), String> {
    let o = outcome;
    if o.issued != rig.n || o.completed != rig.n || o.history.len() != rig.n {
        return Err(format!(
            "{} transactions wanted, {} issued, {} completed, {} in the history",
            rig.n,
            o.issued,
            o.completed,
            o.history.len()
        ));
    }
    if o.verdict != Verdict::Serializable {
        return Err(format!("the run's verdict is {:?}", o.verdict));
    }
    Ok(())
}

/// The rest of the gate, on the facts of a rep that passed [`gate`]:
/// nothing aborted or incomplete, and the checker observed at least what
/// the protocol claims.
pub fn gate_facts(w: &Workload, facts: &Facts, report: &ReportFacts) -> Result<(), String> {
    if facts.incomplete != 0 || facts.aborted != 0 {
        return Err(format!(
            "{} incomplete, {} aborted",
            facts.incomplete, facts.aborted
        ));
    }
    w.claim_violation(report).map_or(Ok(()), Err)
}

// ---- standalone checkers ---------------------------------------------------

/// `StreamChecker::check`'s steps on a finished history, keeping the
/// checker for its counters.  `None` if the checker panicked (known: open-
/// loop histories from ~30k arrivals).
pub fn check_stream(history: &History) -> Option<(Verdict, StreamFacts)> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut checker = StreamChecker::new();
        checker.feed_history(history);
        let verdict = checker.finish();
        ((&verdict).into(), stream_facts(&checker))
    }))
    .ok()
}

pub fn check_posthoc(history: &History) -> Option<Verdict> {
    catch_unwind(AssertUnwindSafe(|| (&check_auto(history)).into())).ok()
}

pub fn check_graph(history: &History) -> Option<Verdict> {
    catch_unwind(AssertUnwindSafe(|| {
        (&GraphChecker::new().check(history)).into()
    }))
    .ok()
}

// ---- observability ---------------------------------------------------------

/// The exact counts `fold_events` derives from an observed rep.
#[derive(Default)]
pub struct EventFacts {
    pub events: usize,
    pub steps: u64,
    pub sends: u64,
    pub cross_shard_sends: u64,
    pub epochs: u64,
    pub epoch_stalls: u64,
    pub fault_drops: u64,
    pub queue_depth_p50: u64,
    pub queue_depth_peak: i64,
}

pub fn fold(events: &[ShardEvent]) -> EventFacts {
    let snap = fold_events(events);
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    EventFacts {
        events: events.len(),
        steps: count("sim.invocations") + count("sim.deliveries"),
        sends: count("sim.sends"),
        cross_shard_sends: count("sim.cross_shard_sends"),
        epochs: count("sim.epochs"),
        epoch_stalls: count("sim.epoch_stalls"),
        fault_drops: count("sim.fault_drops"),
        queue_depth_p50: snap.histograms.get("sim.queue_depth").map_or(0, |h| h.p50),
        queue_depth_peak: snap
            .gauges
            .get("sim.queue_depth_peak")
            .copied()
            .unwrap_or(0),
    }
}

pub fn perfetto(events: &[ShardEvent]) -> usize {
    perfetto_json(events, "e2e_bench", 1).len()
}

// ---- protocol handlers alone -----------------------------------------------

/// A bench-local inline executor over `deploy_any` nodes: `on_invoke` /
/// `on_message` + `Effects::into_parts`, one global FIFO, no scheduler, no
/// trace, no clock.  What it costs to replay a workload's transactions is
/// an estimate of the protocol handlers' share of a run — compare it across
/// commits, not against `sim.run`.
pub struct Replay {
    nodes: Vec<AnyNode>,
    server_slot: Vec<usize>,
    client_slot: Vec<usize>,
}

/// Transactions to replay, grouped into batches of distinct clients that
/// are invoked together (so handlers see concurrent transactions).
pub type ReplayPlan = Vec<Vec<(TxId, ClientId, TxSpec)>>;

fn plan_batches(txs: impl Iterator<Item = (TxId, ClientId, TxSpec)>, width: usize) -> ReplayPlan {
    let mut plan: ReplayPlan = Vec::new();
    let mut seen = BTreeSet::new();
    let mut batch = Vec::new();
    for tx in txs {
        if batch.len() == width || !seen.insert(tx.1) {
            plan.push(std::mem::take(&mut batch));
            seen.clear();
            seen.insert(tx.1);
        }
        batch.push(tx);
    }
    plan.push(batch);
    plan
}

impl Replay {
    fn new(protocol: ProtocolKind, config: &SystemConfig) -> Replay {
        let nodes = deploy_any(protocol, config).expect("valid configuration");
        let mut server_slot = Vec::new();
        let mut client_slot = Vec::new();
        for (slot, node) in nodes.iter().enumerate() {
            let (table, id) = match node.id() {
                ProcessId::Server(s) => (&mut server_slot, s.0 as usize),
                ProcessId::Client(c) => (&mut client_slot, c.0 as usize),
            };
            if table.len() <= id {
                table.resize(id + 1, usize::MAX);
            }
            table[id] = slot;
        }
        Replay {
            nodes,
            server_slot,
            client_slot,
        }
    }

    /// The workload's own protocol and shape, replaying the transactions of
    /// `history` in invocation order.
    pub fn of_workload(w: &Workload, history: &History) -> (Replay, ReplayPlan) {
        let width = match w.load {
            Load::Closed { per_round } => per_round,
            Load::Open { .. } => (w.readers + w.writers) as usize,
        };
        let txs = history
            .records
            .iter()
            .map(|r| (r.tx_id, r.client, r.spec.clone()));
        (
            Replay::new(w.protocol, &w.config()),
            plan_batches(txs, width),
        )
    }

    /// Each of the six protocols on a common small mix — `count`
    /// transactions of the AlgB workloads' mix on `mwmr(4, 4, 4)`
    /// (`mwsr(4, 3, c2c)` for Algorithm A, which has one reader) — with the
    /// name of its metric.
    pub fn each_protocol(
        count: usize,
        seeds: &Seeds,
    ) -> impl Iterator<Item = (&'static str, Replay, ReplayPlan)> + '_ {
        let metrics = [
            "protocols.alga.handler_ns_per_tx",
            "protocols.algb.handler_ns_per_tx",
            "protocols.algc.handler_ns_per_tx",
            "protocols.eiger.handler_ns_per_tx",
            "protocols.blocking.handler_ns_per_tx",
            "protocols.simple.handler_ns_per_tx",
        ];
        std::iter::zip(metrics, ProtocolKind::all()).map(move |(metric, protocol)| {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(4, 3, true)
            } else {
                SystemConfig::mwmr(4, 4, 4)
            };
            let mut generator = WorkloadGenerator::new(&config, WIDE_B_DC.mix(seeds));
            let txs = (0..count as u64).map(|i| {
                let tx = generator.next_tx();
                (TxId(i), tx.client, tx.spec)
            });
            (metric, Replay::new(protocol, &config), plan_batches(txs, 8))
        })
    }

    fn node(&mut self, id: ProcessId) -> &mut AnyNode {
        let slot = match id {
            ProcessId::Server(s) => self.server_slot[s.0 as usize],
            ProcessId::Client(c) => self.client_slot[c.0 as usize],
        };
        &mut self.nodes[slot]
    }

    /// Runs the plan; returns the number of transactions that responded.
    pub fn run(&mut self, plan: ReplayPlan) -> usize {
        let mut queue: VecDeque<(ProcessId, ProcessId, AnyMsg)> = VecDeque::new();
        let mut responded = 0usize;
        let mut now = 0u64;
        for batch in plan {
            for (tx, client, spec) in batch {
                now += 1;
                let from = ProcessId::Client(client);
                let mut effects = Effects::new(now);
                self.node(from).on_invoke(tx, spec, &mut effects);
                let (sends, responses) = effects.into_parts();
                responded += responses.len();
                queue.extend(sends.into_iter().map(|(to, msg)| (from, to, msg)));
            }
            while let Some((from, to, msg)) = queue.pop_front() {
                now += 1;
                let mut effects = Effects::new(now);
                self.node(to).on_message(from, msg, &mut effects);
                let (sends, responses) = effects.into_parts();
                responded += responses.len();
                queue.extend(sends.into_iter().map(|(next, msg)| (to, next, msg)));
            }
        }
        responded
    }
}

// ---- the event-queue core alone --------------------------------------------

#[derive(Debug, Clone)]
enum FloodMsg {
    Req,
    Resp,
}

impl SimMessage for FloodMsg {}

/// One client fans `width` requests out to one echo server in a single
/// invocation: `2 * width + 1` engine steps with up to `width` messages in
/// the pool and no protocol work (the benchmark's own copy of the flood,
/// so `snow_bench` can change or go).
enum FloodNode {
    Client { outstanding: Option<(TxId, usize)> },
    Server,
}

impl Process for FloodNode {
    type Msg = FloodMsg;

    fn id(&self) -> ProcessId {
        match self {
            FloodNode::Client { .. } => ProcessId::Client(ClientId(0)),
            FloodNode::Server => ProcessId::Server(ServerId(0)),
        }
    }

    fn on_invoke(&mut self, tx: TxId, spec: TxSpec, effects: &mut Effects<FloodMsg>) {
        let FloodNode::Client { outstanding } = self else {
            panic!("flood server invoked")
        };
        let width = spec.objects_iter().count();
        *outstanding = Some((tx, width));
        for _ in 0..width {
            effects.send(ProcessId::Server(ServerId(0)), FloodMsg::Req);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: FloodMsg, effects: &mut Effects<FloodMsg>) {
        match (self, msg) {
            (FloodNode::Server, FloodMsg::Req) => effects.send(from, FloodMsg::Resp),
            (FloodNode::Client { outstanding }, FloodMsg::Resp) => {
                let (tx, remaining) = outstanding.as_mut().expect("a flood is outstanding");
                *remaining -= 1;
                if *remaining == 0 {
                    let outcome = ReadOutcome {
                        reads: Vec::new(),
                        tag: None,
                    };
                    effects.respond(*tx, TxOutcome::Read(outcome));
                    *outstanding = None;
                }
            }
            _ => panic!("unexpected flood message"),
        }
    }
}

pub struct Flood {
    sim: Simulation<FloodNode, LatencyScheduler>,
    tx: TxId,
}

impl Flood {
    pub fn new(width: usize, seeds: &Seeds) -> Flood {
        let mut sim = Simulation::new(LatencyScheduler::new(seeds.net, 1, 64))
            .with_max_steps(u64::MAX)
            .with_trace_capacity(4096);
        sim.add_process(FloodNode::Client { outstanding: None });
        sim.add_process(FloodNode::Server);
        let objects: Vec<ObjectId> = (0..width as u32).map(ObjectId).collect();
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(objects));
        Flood { sim, tx }
    }

    /// Runs the flood to quiescence; returns the engine steps taken.
    pub fn run(mut self) -> u64 {
        let steps = self.sim.run_until_quiescent();
        assert!(
            self.sim.is_complete(self.tx),
            "the flood transaction completes"
        );
        steps
    }
}
