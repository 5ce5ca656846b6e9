//! Uniform deployment interface over every protocol.
//!
//! Benchmarks, workloads and the comparison tables need to treat "an
//! Algorithm A cluster" and "an Eiger cluster" the same way: invoke
//! transactions, run the simulation, collect the [`History`].  The
//! [`Cluster`] trait is that interface, and [`ClusterSpec`] is the one way
//! to construct a boxed cluster: a [`ProtocolKind`] and a [`SystemConfig`],
//! plus whichever of scheduler/topology, step cap, observability and fault
//! schedule differ from the defaults.

use crate::any::{deploy_any, AnyNode};
use snow_core::{
    ClientId, History, Process, Result, ServerId, SystemConfig, TxId, TxRecord, TxSpec,
};
use snow_sim::{
    Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule, LatencyScheduler,
    LinkDist, NullSink, Partition, PartitionPolicy, RandomScheduler, RecordingSink, RestartFn,
    Scheduler, Simulation, Topology, TraceSink,
};
use std::sync::Arc;

pub use snow_sim::{CommitDrain, DEFAULT_MAX_STEPS};
pub use snow_sim::{ObsEvent, ShardEvent};

/// Which protocol a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Algorithm A: SNOW, MWSR, client-to-client communication.
    AlgA,
    /// Algorithm B: SNW + one-version, two rounds, MWMR.
    AlgB,
    /// Algorithm C: SNW + one-round, multi-version, MWMR.
    AlgC,
    /// Eiger-style Lamport-clock read-only transactions.
    Eiger,
    /// Blocking strict-2PL baseline.
    Blocking,
    /// Non-transactional simple reads/writes (latency floor).
    Simple,
}

impl ProtocolKind {
    /// All protocols, in presentation order.
    pub fn all() -> [ProtocolKind; 6] {
        [
            ProtocolKind::AlgA,
            ProtocolKind::AlgB,
            ProtocolKind::AlgC,
            ProtocolKind::Eiger,
            ProtocolKind::Blocking,
            ProtocolKind::Simple,
        ]
    }

    /// Human-readable name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::AlgA => "Algorithm A (SNOW, MWSR+C2C)",
            ProtocolKind::AlgB => "Algorithm B (SNW, 1 version, 2 rounds)",
            ProtocolKind::AlgC => "Algorithm C (SNW, 1 round, |W| versions)",
            ProtocolKind::Eiger => "Eiger-style (logical clocks)",
            ProtocolKind::Blocking => "Blocking 2PL",
            ProtocolKind::Simple => "Simple reads/writes",
        }
    }

    /// True if the protocol needs client-to-client communication.
    pub fn needs_c2c(&self) -> bool {
        matches!(self, ProtocolKind::AlgA)
    }
}

/// How message delivery is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// FIFO delivery (send order).
    Fifo,
    /// Uniformly random delivery, seeded.
    Random(u64),
    /// Random per-message latency in `[min, max]` ticks, seeded.
    Latency {
        /// Seed of the per-message latency hash.
        seed: u64,
        /// Minimum latency in ticks.
        min: u64,
        /// Maximum latency in ticks.
        max: u64,
    },
}

/// Identity, kept for `examples/e2e_bench` (frozen benchmark path): the
/// argument of [`ClusterSpec::executor`], which ignores it.  Every cluster
/// runs on the one simulator, `snow_sim::Simulation`, whichever variant a
/// spec names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The simulator.
    SerialSim,
    /// Also the simulator: the benchmark's "sharded twin" names it.
    ParallelSim {
        /// Ignored.
        shards: usize,
    },
}

/// A deployed protocol instance that can execute transactions.
pub trait Cluster {
    /// Schedules `spec` for invocation by `client` at simulation time `at`.
    /// With the event-queue engine this is an O(log n) heap push, so bulk
    /// workload setup is O(n log n) overall.
    fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId;

    /// Schedules a whole batch of invocations at the same time `at`,
    /// returning the transaction ids in batch order.  Equivalent to calling
    /// [`Cluster::invoke_at`] per entry (ids are assigned in batch order);
    /// drivers use it to make round setup a single call.
    fn invoke_batch(&mut self, at: u64, batch: Vec<(ClientId, TxSpec)>) -> Vec<TxId> {
        batch
            .into_iter()
            .map(|(client, spec)| self.invoke_at(at, client, spec))
            .collect()
    }
    /// Runs until nothing remains to do.  Returns the number of steps taken.
    fn run_until_quiescent(&mut self) -> u64;
    /// Runs until `tx` completes; returns whether it did.
    fn run_until_complete(&mut self, tx: TxId) -> bool;
    /// Runs until **any** transaction in `watch` completes (or the system
    /// goes quiescent), returning the first completed one in `watch` order.
    /// An empty `watch` returns `None` without running.  This is what an
    /// open-loop driver needs: with one outstanding transaction per client
    /// it waits for *any* client to free, not for one specific target.
    fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId>;
    /// True if `tx` has completed.
    fn is_complete(&self, tx: TxId) -> bool;
    /// A copy of the history of the run so far — a mid-run snapshot; the
    /// cluster keeps its records.
    fn history(&self) -> History;
    /// Moves the history of the run out, without copying it, and leaves
    /// the cluster with no records and no commits to drain (see
    /// [`Simulation::take_history`]) — how a driver ends its run.
    fn take_history(&mut self) -> History;
    /// Current simulation time.
    fn now(&self) -> u64;
    /// The record of `tx`, read where the cluster keeps it (see
    /// [`Simulation::record`]); `None` if it was not invoked or has left
    /// with [`Cluster::take_history`].
    fn record(&self, tx: TxId) -> Option<&TxRecord>;
    /// Drains the transactions committed since the previous drain,
    /// retiring the consumed commit-log prefix — the incremental feed for
    /// streaming certification.  `ids` is replaced by their ids in global
    /// RESP order, each readable through [`Cluster::record`]; the result is
    /// the watermark a streaming checker may advance to after ingesting
    /// them (see [`Simulation::drain_commit_ids`]).
    fn drain_commit_ids(&mut self, ids: &mut Vec<TxId>) -> u64;
    /// [`Cluster::drain_commit_ids`] with a copy of each record, as a
    /// [`snow_sim::CommitDrain`].  The drivers' checks read records in
    /// place; this copy stays only for the repo benchmark's traced pass,
    /// which still calls it (ROADMAP item 11).
    fn drain_commits(&mut self) -> CommitDrain;
    /// Yields and clears the observability events collected so far.
    /// Clusters built without [`ClusterSpec::observed`] record nothing and
    /// return nothing.
    fn drain_obs_events(&mut self) -> Vec<ShardEvent> {
        Vec::new()
    }
}

impl<P, S, O> Cluster for Simulation<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
        Simulation::invoke_at(self, at, client, spec)
    }
    fn run_until_quiescent(&mut self) -> u64 {
        Simulation::run_until_quiescent(self)
    }
    fn run_until_complete(&mut self, tx: TxId) -> bool {
        Simulation::run_until_complete(self, tx)
    }
    fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
        Simulation::run_until_any_complete(self, watch)
    }
    fn is_complete(&self, tx: TxId) -> bool {
        Simulation::is_complete(self, tx)
    }
    fn history(&self) -> History {
        Simulation::history(self)
    }
    fn take_history(&mut self) -> History {
        Simulation::take_history(self)
    }
    fn now(&self) -> u64 {
        Simulation::now(self)
    }
    fn record(&self, tx: TxId) -> Option<&TxRecord> {
        Simulation::record(self, tx)
    }
    fn drain_commit_ids(&mut self, ids: &mut Vec<TxId>) -> u64 {
        Simulation::drain_commit_ids(self, ids)
    }
    fn drain_commits(&mut self) -> CommitDrain {
        Simulation::drain_commits(self)
    }
    fn drain_obs_events(&mut self) -> Vec<ShardEvent> {
        Simulation::drain_obs_events(self)
    }
}

/// The scheduler half of a [`ClusterSpec`]: the random adversary, or a
/// [`LatencyScheduler`] over a topology's links.
#[derive(Debug, Clone)]
enum SchedChoice {
    Random(u64),
    Links { topology: Arc<Topology>, seed: u64 },
}

impl From<SchedulerKind> for SchedChoice {
    /// FIFO and uniform latency are one-site topologies; FIFO's one link
    /// has zero latency.
    fn from(kind: SchedulerKind) -> Self {
        let (seed, min, max) = match kind {
            SchedulerKind::Random(seed) => return SchedChoice::Random(seed),
            SchedulerKind::Fifo => (0, 0, 0),
            SchedulerKind::Latency { seed, min, max } => (seed, min, max),
        };
        let topology = Arc::new(Topology::one_site(LinkDist::Uniform { min, max }));
        SchedChoice::Links { topology, seed }
    }
}

/// The single cluster-construction path: a builder crossing protocol ×
/// scheduler/topology × step cap × observability × fault schedule.
///
/// Defaults: FIFO scheduler, [`DEFAULT_MAX_STEPS`], no observability
/// recording, no faults.  [`ClusterSpec::build`] borrows the spec, so one
/// spec can stamp out many clusters (e.g. a plain run and its observed
/// twin).
///
/// ```
/// use snow_core::{ObjectId, SystemConfig, TxSpec, Value};
/// use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
///
/// let config = SystemConfig::mwmr(2, 1, 1);
/// let spec = ClusterSpec::new(ProtocolKind::AlgC, &config)
///     .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 20 });
/// let mut cluster = spec.build().unwrap();
/// let writer = config.writers().next().unwrap();
/// let w = cluster.invoke_at(0, writer, TxSpec::write(vec![(ObjectId(0), Value(9))]));
/// assert!(cluster.run_until_complete(w));
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    protocol: ProtocolKind,
    config: SystemConfig,
    sched: SchedChoice,
    max_steps: u64,
    observed: bool,
    faults: Option<FaultSchedule>,
}

impl ClusterSpec {
    /// A spec for `protocol` over `config` with every axis at its default.
    pub fn new(protocol: ProtocolKind, config: &SystemConfig) -> Self {
        ClusterSpec {
            protocol,
            config: config.clone(),
            sched: SchedulerKind::Fifo.into(),
            max_steps: DEFAULT_MAX_STEPS,
            observed: false,
            faults: None,
        }
    }

    /// The system configuration the cluster deploys over.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Delivers messages per `scheduler` (FIFO / seeded-random / uniform
    /// latency).  Mutually exclusive with [`ClusterSpec::topology`]; the
    /// last call wins.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.sched = scheduler.into();
        self
    }

    /// Delivers messages with per-link latencies drawn from `topology` —
    /// a [`LatencyScheduler`] seeded with `seed` (see the
    /// `snow_sim::topology` module docs).
    pub fn topology(mut self, topology: Arc<Topology>, seed: u64) -> Self {
        self.sched = SchedChoice::Links { topology, seed };
        self
    }

    /// Identity, kept for `examples/e2e_bench` (frozen benchmark path): every
    /// spec builds the one simulator, whichever [`ExecutorKind`] it names.
    pub fn executor(self, _executor: ExecutorKind) -> Self {
        self
    }

    /// Caps the run at `max_steps` dispatches (default
    /// [`DEFAULT_MAX_STEPS`]).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Identity, kept for `examples/e2e_bench` (frozen benchmark path): there is one trace regime.
    pub fn trace_capacity(self, _capacity: Option<usize>) -> Self {
        self
    }

    /// Records observability events ([`ObsEvent`]) into a
    /// [`RecordingSink`], drained via [`Cluster::drain_obs_events`].
    /// Recording provably does not perturb the run (the `observability`
    /// integration test pins every golden fixture with and without it).
    pub fn observed(mut self, observed: bool) -> Self {
        self.observed = observed;
        self
    }

    /// Executes under `faults` (drop/duplicate/delay regions, partitions,
    /// server crash+recovery).  Crashed processes restart from fresh
    /// protocol state (the deployment re-run for their id); an empty
    /// schedule reproduces the fault-free histories byte for byte, and a
    /// faulty history is a pure function of `(protocol, config, scheduler,
    /// fault schedule)`.
    ///
    /// Transactions the schedule orphans (server crashed with the request
    /// in flight, partition swallowed a message) are retired as
    /// [`snow_core::TxOutcome::Aborted`] at quiescence, so
    /// [`Cluster::history`] stays complete and the checkers can certify or
    /// convict the run.  With [`ClusterSpec::observed`] the event stream
    /// also carries the fault vocabulary — `MessageDropped`,
    /// `MessageDuplicated`, `ServerCrashed`, `ServerRecovered`,
    /// `PartitionStarted`, `PartitionHealed` — stamped with virtual ticks.
    ///
    /// The crash-recovery walkthrough the README points at:
    ///
    /// ```
    /// use snow_core::{ObjectId, SystemConfig, TxSpec, Value};
    /// use snow_protocols::{
    ///     scenario_crash_mid_read, ClusterSpec, ObsEvent, ProtocolKind, SchedulerKind,
    /// };
    ///
    /// let config = SystemConfig::mwmr(4, 4, 4);
    /// let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
    ///     .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
    ///     .faults(scenario_crash_mid_read()) // server 0 dies at tick 30, back at 120
    ///     .observed(true)
    ///     .build()
    ///     .unwrap();
    ///
    /// // Drive traffic across the crash window.  Every transaction retires —
    /// // committed, or Aborted when the crash orphaned it — so the closed
    /// // loop never wedges on a dead server.
    /// let writer = config.writers().next().unwrap();
    /// let reader = config.readers().next().unwrap();
    /// for round in 0..20 {
    ///     let w = cluster.invoke_at(cluster.now(), writer, TxSpec::write(vec![(ObjectId(0), Value(round))]));
    ///     assert!(cluster.run_until_complete(w));
    ///     let r = cluster.invoke_at(cluster.now(), reader, TxSpec::read(vec![ObjectId(0)]));
    ///     assert!(cluster.run_until_complete(r));
    /// }
    ///
    /// let events = cluster.drain_obs_events();
    /// let crashed = events.iter().any(|e| matches!(e.event, ObsEvent::ServerCrashed { .. }));
    /// let recovered = events.iter().any(|e| matches!(e.event, ObsEvent::ServerRecovered { .. }));
    /// assert!(crashed && recovered, "the trace shows the crash and the recovery");
    /// // Export with `snow_obs::perfetto_json(&events, "crash drill", 1)` and
    /// // load the file at https://ui.perfetto.dev — the crash/recovery pair
    /// // shows up as instant markers on the simulator's track.
    /// ```
    pub fn faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Deploys the protocol and assembles the cluster.  Errors if the
    /// protocol rejects the configuration (e.g. Algorithm A without C2C),
    /// a latency range is empty, or a topology of several sites does not
    /// place every process of the configuration.
    pub fn build(&self) -> Result<Box<dyn Cluster>> {
        let invalid = |msg: String| Err(snow_core::SnowError::InvalidConfig(msg));
        if let SchedChoice::Links { topology, .. } = &self.sched {
            for link in topology.links() {
                if let LinkDist::Uniform { min, max } = link {
                    if min > max {
                        return invalid(format!("latency range is empty: min {min} > max {max}"));
                    }
                }
            }
            let (servers, clients) = (topology.num_servers(), topology.num_clients());
            let (need_servers, need_clients) =
                (self.config.num_servers as usize, self.config.num_clients() as usize);
            if topology.num_sites() > 1 && (servers < need_servers || clients < need_clients) {
                return invalid(format!(
                    "topology places {servers} servers and {clients} clients, the \
                     configuration has {need_servers} and {need_clients}"
                ));
            }
        }
        let nodes = deploy_any(self.protocol, &self.config)?;
        Ok(match &self.sched {
            SchedChoice::Random(seed) => self.simulation(nodes, RandomScheduler::new(*seed)),
            SchedChoice::Links { topology, seed } => {
                self.simulation(nodes, LatencyScheduler::over(topology.clone(), *seed))
            }
        })
    }

    /// The [`Simulation`] of `nodes` under `scheduler`, with the spec's step
    /// cap, sink and fault schedule.
    fn simulation<S>(&self, nodes: Vec<AnyNode>, scheduler: S) -> Box<dyn Cluster>
    where
        S: Scheduler<<AnyNode as Process>::Msg> + 'static,
    {
        fn finish<S, O>(
            spec: &ClusterSpec,
            nodes: Vec<AnyNode>,
            scheduler: S,
            sink: O,
        ) -> Box<dyn Cluster>
        where
            S: Scheduler<<AnyNode as Process>::Msg> + 'static,
            O: TraceSink + 'static,
        {
            let mut sim = Simulation::new(scheduler)
                .with_max_steps(spec.max_steps)
                .with_sink(sink);
            if let Some(faults) = spec.faults.clone() {
                sim = sim.with_faults(faults, Some(faulty_restart(spec.protocol, &spec.config)));
            }
            for n in nodes {
                sim.add_process(n);
            }
            Box::new(sim)
        }
        if self.observed {
            finish(self, nodes, scheduler, RecordingSink::new())
        } else {
            finish(self, nodes, scheduler, NullSink)
        }
    }
}

/// The restart factory [`ClusterSpec::faults`] hands the fault engine: a
/// crashed process is rebuilt **from fresh protocol state** by re-running
/// the (pure) deployment for its id — exactly the state loss of a
/// crash-stop-with-restart failure.
fn faulty_restart(protocol: ProtocolKind, config: &SystemConfig) -> RestartFn<AnyNode> {
    let config = config.clone();
    Box::new(move |pid| {
        deploy_any(protocol, &config)
            .expect("a deployed configuration redeploys")
            .into_iter()
            .find(|n| n.id() == pid)
            .unwrap_or_else(|| panic!("restart factory: no process {pid} in the deployment"))
    })
}

/// The "crash mid-read" scenario: server 0 crashes in the middle of a
/// short workload and recovers with its state lost; in-flight messages to
/// it are dropped.  Transactions it was serving abort.
pub fn scenario_crash_mid_read() -> FaultSchedule {
    FaultSchedule::new(0xC7A5).with_crash(Crash {
        server: ServerId(0),
        at: 30,
        recover_at: 120,
        policy: CrashPolicy::DropInFlight,
    })
}

/// The "partition during write" scenario: server 0 is cut off from every
/// other process over ticks 20–90; cut messages are held and delivered at
/// the heal, so writes in flight stall across the partition instead of
/// dying.
pub fn scenario_partition_during_write() -> FaultSchedule {
    FaultSchedule::new(0xBEEF)
        .with_partition(Partition::isolate_server(ServerId(0), 20, 90, PartitionPolicy::Queue))
}

/// The "dup storm" scenario: 40% of client→server traffic is duplicated
/// for the whole run — at-least-once delivery, which the paper's
/// reliable-network model never exercises.
pub fn scenario_dup_storm() -> FaultSchedule {
    FaultSchedule::new(0xD0B).with_region(FaultRegion {
        action: FaultAction::Duplicate,
        src: EndpointSel::AnyClient,
        dst: EndpointSel::AnyServer,
        from: 0,
        until: u64::MAX,
        chance_pct: 40,
    })
}

/// The scenario matrix the fault suites run: named fault schedules re-asking the paper's Fig. 1 questions under
/// failures.
pub fn fault_scenarios() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("crash_mid_read", scenario_crash_mid_read()),
        ("partition_during_write", scenario_partition_during_write()),
        ("dup_storm", scenario_dup_storm()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ObjectId, Value};

    #[test]
    fn protocol_kind_metadata() {
        // The repo benchmark zips this order with its per-protocol metric names.
        let names = ["AlgA", "AlgB", "AlgC", "Eiger", "Blocking", "Simple"];
        assert_eq!(ProtocolKind::all().map(|k| format!("{k:?}")), names);
        assert!(ProtocolKind::AlgA.needs_c2c());
        assert!(!ProtocolKind::AlgB.needs_c2c());
        for k in ProtocolKind::all() {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn every_protocol_runs_the_same_tiny_workload() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(2, 1, true)
            } else {
                SystemConfig::mwmr(2, 1, 1)
            };
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Random(9))
                .build()
                .unwrap();
            let writer = config.writers().next().unwrap();
            let reader = config.readers().next().unwrap();
            let w = cluster.invoke_at(
                0,
                writer,
                TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]),
            );
            assert!(cluster.run_until_complete(w), "{}", protocol.name());
            let r = cluster.invoke_at(
                cluster.now(),
                reader,
                TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
            );
            assert!(cluster.run_until_complete(r), "{}", protocol.name());
            let h = cluster.history();
            let out = h.get(r).unwrap().outcome.as_ref().unwrap().as_read().unwrap().clone();
            assert_eq!(out.value_for(ObjectId(0)), Some(Value(1)), "{}", protocol.name());
            assert_eq!(out.value_for(ObjectId(1)), Some(Value(2)), "{}", protocol.name());
            assert_eq!(h.incomplete_count(), 0);
        }
    }

    #[test]
    fn invoke_batch_matches_sequential_invocation() {
        let config = SystemConfig::mwmr(2, 2, 1);
        let writers: Vec<_> = config.writers().collect();
        let batch: Vec<_> = writers
            .iter()
            .enumerate()
            .map(|(i, w)| (*w, TxSpec::write(vec![(ObjectId(0), Value(i as u64 + 1))])))
            .collect();

        let spec =
            ClusterSpec::new(ProtocolKind::AlgB, &config).scheduler(SchedulerKind::Random(3));
        let mut a = spec.build().unwrap();
        let ids_batch = a.invoke_batch(0, batch.clone());
        a.run_until_quiescent();

        let mut b = spec.build().unwrap();
        let ids_seq: Vec<_> = batch
            .into_iter()
            .map(|(client, spec)| b.invoke_at(0, client, spec))
            .collect();
        b.run_until_quiescent();

        assert_eq!(ids_batch, ids_seq);
        assert_eq!(format!("{:?}", a.history()), format!("{:?}", b.history()));
    }

    #[test]
    fn scheduler_kinds_all_work() {
        let config = SystemConfig::mwmr(2, 1, 1);
        for sched in [
            SchedulerKind::Fifo,
            SchedulerKind::Random(1),
            SchedulerKind::Latency { seed: 1, min: 1, max: 20 },
        ] {
            let mut cluster =
                ClusterSpec::new(ProtocolKind::AlgB, &config).scheduler(sched).build().unwrap();
            let writer = config.writers().next().unwrap();
            let w = cluster.invoke_at(0, writer, TxSpec::write(vec![(ObjectId(0), Value(3))]));
            assert!(cluster.run_until_complete(w));
        }
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        // Algorithm A in a no-C2C config is refused.
        let cfg = SystemConfig::mwsr(2, 1, false);
        assert!(ClusterSpec::new(ProtocolKind::AlgA, &cfg).build().is_err());
    }

    /// `build` is the only constructor: input it can reject comes back as
    /// `InvalidConfig` instead of panicking in a scheduler's constructor or
    /// on an unchecked index mid-run.
    #[test]
    fn build_rejects_schedules_that_cannot_run() {
        use snow_core::SnowError;
        use snow_sim::Topology;
        let config = SystemConfig::mwmr(4, 2, 2);
        let empty_range = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .scheduler(SchedulerKind::Latency { seed: 1, min: 5, max: 1 });
        // A topology built for a smaller deployment than the spec's.
        let small = Arc::new(Topology::wan3(&SystemConfig::mwmr(2, 1, 1)));
        let too_small = ClusterSpec::new(ProtocolKind::AlgB, &config).topology(small, 3);
        for spec in [empty_range, too_small] {
            assert!(matches!(spec.build(), Err(SnowError::InvalidConfig(_))), "{spec:?}");
        }
    }

    /// The cluster a spec builds, driven through five rounds of concurrent
    /// writes and a read: history, clock and observed event stream.
    fn drive_rounds(spec: ClusterSpec, config: &SystemConfig) -> String {
        let mut cluster = spec.observed(true).build().unwrap();
        let writers: Vec<_> = config.writers().collect();
        let readers: Vec<_> = config.readers().collect();
        for round in 0..5u64 {
            let mut batch: Vec<_> = writers
                .iter()
                .enumerate()
                .map(|(i, w)| (*w, TxSpec::write(vec![(ObjectId(i as u32), Value(round + 1))])))
                .collect();
            batch.push((readers[0], TxSpec::read(vec![ObjectId(0), ObjectId(1)])));
            cluster.invoke_batch(cluster.now(), batch);
            cluster.run_until_quiescent();
        }
        let history = cluster.history();
        assert_eq!(history.len(), 5 * (writers.len() + 1));
        format!("{history:?} now={} {:?}", cluster.now(), cluster.drain_obs_events())
    }

    /// `ClusterSpec::executor` is an identity the frozen benchmark adapter
    /// relies on (it builds its "sharded twin" through it): a spec naming
    /// one shard — or none, or two — builds the default spec's cluster,
    /// byte for byte, under every classic scheduler.
    #[test]
    fn one_shard_parallel_cluster_matches_the_serial_cluster() {
        let config = SystemConfig::mwmr(3, 2, 2);
        for sched in [
            SchedulerKind::Fifo,
            SchedulerKind::Random(13),
            SchedulerKind::Latency { seed: 13, min: 1, max: 20 },
        ] {
            let spec = ClusterSpec::new(ProtocolKind::AlgB, &config).scheduler(sched);
            let reference = drive_rounds(spec.clone(), &config);
            for shards in [0usize, 1, 2] {
                let named = spec.clone().executor(ExecutorKind::ParallelSim { shards });
                let got = drive_rounds(named, &config);
                assert_eq!(got, reference, "{sched:?}, {shards} shards");
            }
        }
    }

    /// The same identity under topology scheduling, clean and under the dup
    /// storm: the shard count a spec names never reaches the history.
    #[test]
    fn topology_clusters_are_shard_count_independent() {
        use snow_sim::Topology;
        let config = SystemConfig::mwmr(4, 2, 2);
        let topo = Arc::new(Topology::wan3(&config));
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Simple] {
            let clean = ClusterSpec::new(protocol, &config).topology(topo.clone(), 0x70);
            for spec in [clean.clone(), clean.faults(scenario_dup_storm())] {
                let reference = drive_rounds(spec.clone(), &config);
                for shards in [1usize, 4] {
                    let named = spec.clone().executor(ExecutorKind::ParallelSim { shards });
                    let got = drive_rounds(named, &config);
                    assert_eq!(got, reference, "{protocol:?}, {shards} shards");
                }
            }
        }
    }

    #[test]
    fn multi_shard_cluster_completes_every_protocol() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(4, 2, true)
            } else {
                SystemConfig::mwmr(4, 2, 2)
            };
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed: 3, min: 1, max: 12 })
                .executor(ExecutorKind::ParallelSim { shards: 4 })
                .build()
                .unwrap();
            let writer = config.writers().next().unwrap();
            let reader = config.readers().next().unwrap();
            let w = cluster.invoke_at(
                0,
                writer,
                TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]),
            );
            assert!(cluster.run_until_complete(w), "{}", protocol.name());
            let r = cluster.invoke_at(
                cluster.now(),
                reader,
                TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
            );
            assert!(cluster.run_until_complete(r), "{}", protocol.name());
            let h = cluster.history();
            let out = h.get(r).unwrap().outcome.as_ref().unwrap().as_read().unwrap().clone();
            assert_eq!(out.value_for(ObjectId(0)), Some(Value(1)), "{}", protocol.name());
            assert_eq!(out.value_for(ObjectId(1)), Some(Value(2)), "{}", protocol.name());
            assert_eq!(h.incomplete_count(), 0, "{}", protocol.name());
        }
    }
}
