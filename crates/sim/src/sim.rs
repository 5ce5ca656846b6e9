//! The simulation façade: one dispatch core (the private `engine` module)
//! driving all processes.
//!
//! # Event-queue architecture and complexity contract
//!
//! The engine orders events with two heaps and looks everything else up by
//! index, so the step loop neither scans nor walks a tree:
//!
//! * in-flight messages live in a [`MessagePool`](crate::MessagePool) — a
//!   slab whose freed slots are reused, and a `(delivery_time, MsgId,
//!   slot)` binary heap for O(log n) earliest-delivery pops; the random
//!   adversary's rank selection in send order is an O(live) pass over the
//!   slab instead (see [`crate::pool`]);
//! * planned invocations live in a `BinaryHeap` keyed by `(at, TxId)`, so
//!   scheduling n invocations is O(n log n) total and the next due
//!   invocation is an O(1) peek;
//! * transaction records live in a **record log**: a `Vec` in INV order —
//!   the clock clamp stamps every INV after the previous one, so the log is
//!   sorted by `(invoked_at, tx_id)` as it is written — beside a dense
//!   `TxId → slot` vector.  Every message carries its causal stamp
//!   ([`crate::Causal`]) and the core folds it into the record it indexes
//!   to as the actions happen (rounds, C2C counts, read instrumentation),
//!   so [`Simulation::history`] is one copy of the log, in order, into a
//!   vector of exactly its length.  The earliest transaction
//!   still in flight — what bounds `CommitDrain::inv_floor` — is a cursor
//!   into the log that only moves forward;
//! * processes live in a **process table**: one slot vector per role,
//!   indexed by `ClientId` / `ServerId`.
//!
//! Per step the engine therefore does O(log n) heap work, O(1) lookups and
//! the process handler's own cost under every heap scheduler (FIFO,
//! latency, topology; the random adversary's pick is O(live)); a handler
//! writes its output into the core's one [`snow_core::Effects`] buffer,
//! which is drained in place and keeps its capacity for the next handler,
//! each message moving once into the pool and once out of it.  Adversarial
//! driving ([`Simulation::deliver_where`], [`Simulation::force_invoke`])
//! trades this for expressiveness: it takes the first match in send order
//! (one pass over the slab) exactly like the historical `Vec`-based engine,
//! which keeps the `snow-impossibility` constructions unchanged.  Adversaries
//! control *order*, never *time*: the dispatch core clamps the clock so no
//! event is dispatched before its own timestamp (see the `engine` module).
//!
//! # One dispatch core
//!
//! Every dispatch decision — invocation-vs-delivery choice, clock advance,
//! handler execution, effect application, step accounting — is made by
//! `engine::DispatchCore`, and every `run_until_*` wait is its one loop
//! (`DispatchCore::run`).  `Simulation` owns exactly one core; there is no
//! second step-loop implementation to keep in lockstep.
//!
//! Determinism: a run is a pure function of `(configuration, scheduler
//! seed, invocation plan)`.  The indexed engine reproduces the linear-scan
//! engine's schedules bit-for-bit — verified by the `determinism`
//! integration test against committed golden histories.

use crate::engine::DispatchCore;
use crate::fault::{FaultSchedule, RestartFn};
use crate::message::{MsgId, PendingMessage};
use crate::scheduler::Scheduler;
use snow_core::{ClientId, History, Process, ProcessId, TxId, TxSpec};
use snow_obs::{NullSink, ShardEvent, TraceSink};

pub use crate::engine::StepOutcome;

/// One batch of newly committed transactions drained from the simulator for
/// streaming certification (see [`Simulation::drain_commits`]).
///
/// `records` are the completed transactions committed since the previous
/// drain, in RESP order (`(responded_at, tx_id)`), each already
/// carrying its instrumentation.  `inv_floor` is a lower bound on the
/// `invoked_at` of every record any *future* drain can return — the
/// watermark an incremental checker may advance its certification frontier
/// to after ingesting the batch.
#[derive(Debug, Clone, Default)]
pub struct CommitDrain {
    /// Newly committed transactions, in RESP order.
    pub records: Vec<snow_core::TxRecord>,
    /// Lower bound on every future drain's `invoked_at` values.
    pub inv_floor: u64,
}

/// A deterministic simulation of a set of processes exchanging messages over
/// reliable asynchronous channels, run by the workspace's single dispatch
/// core (the private `engine` module).
///
/// `O` is the observability sink ([`snow_obs::TraceSink`]); the default
/// [`NullSink`] compiles every emission site away, so an unobserved
/// `Simulation<P, S>` is exactly the pre-observability simulator.  Swap the
/// sink with [`Simulation::with_sink`] and drain virtual-time events with
/// [`Simulation::drain_obs_events`].
pub struct Simulation<P: Process, S, O: TraceSink = NullSink> {
    core: DispatchCore<P, S, O>,
    next_tx: u64,
}

impl<P, S> Simulation<P, S>
where
    P: Process,
    S: Scheduler<P::Msg>,
{
    /// Creates an empty simulation driven by `scheduler` (unobserved: the
    /// default [`NullSink`]).
    pub fn new(scheduler: S) -> Self {
        Simulation {
            core: DispatchCore::new(scheduler),
            next_tx: 0,
        }
    }
}

impl<P, S, O> Simulation<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    /// Rebuilds the simulation around a different observability sink (type
    /// changing: the dispatch core re-monomorphizes its emission sites for
    /// `O2`).  Set the sink before running; events emitted into a previous
    /// sink do not carry over.
    pub fn with_sink<O2: TraceSink>(self, sink: O2) -> Simulation<P, S, O2> {
        Simulation { core: self.core.with_sink(sink), next_tx: self.next_tx }
    }

    /// Yields and clears the observability events collected so far, all
    /// tagged shard 0 and stamped with virtual ticks.  Empty for
    /// non-recording sinks such as [`NullSink`].
    pub fn drain_obs_events(&mut self) -> Vec<ShardEvent> {
        self.core
            .drain_events()
            .into_iter()
            .map(|event| ShardEvent { shard: 0, event })
            .collect()
    }

    /// Overrides the safety cap on the number of steps a run may take.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.core.set_max_steps(max_steps);
        self
    }

    /// Identity, kept for `examples/e2e_bench` (frozen benchmark path): there is one trace regime.
    pub fn with_trace_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// Attaches a [`FaultSchedule`] to the run (builder style; set it
    /// before running).  `restart` is the factory that rebuilds a crashed
    /// process from fresh state at recovery — required iff the schedule
    /// contains crash windows.  An empty schedule is structurally inert:
    /// the engine's fault checks are guarded by the state's presence, and
    /// histories stay byte-identical to an unfaulted run.
    ///
    /// With a schedule attached, the run loops retire transactions that can
    /// no longer complete (their messages dropped, their server's state
    /// lost) as [`snow_core::TxOutcome::Aborted`] once the system goes
    /// quiescent, so histories stay complete under faults.
    pub fn with_faults(mut self, schedule: FaultSchedule, restart: Option<RestartFn<P>>) -> Self {
        self.core.set_faults(schedule, restart);
        self
    }

    /// Registers a process.  Panics if a process with the same id exists.
    pub fn add_process(&mut self, process: P) {
        self.core.add_process(process);
    }

    /// Schedules `spec` to be invoked by `client` at simulation time `at` —
    /// an O(log n) heap push.  Returns the transaction id the invocation
    /// will carry.  Dispatch order is deterministic: earliest `(at, tx)`
    /// first.
    pub fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        self.core.plan(at, tx, client, spec);
        tx
    }

    /// Schedules `spec` to be invoked immediately (at the current time).
    pub fn invoke_now(&mut self, client: ClientId, spec: TxSpec) -> TxId {
        self.invoke_at(self.core.now(), client, spec)
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Number of messages currently in flight.
    pub fn pending_count(&self) -> usize {
        self.core.pending_count()
    }

    /// The in-flight messages, in send (id) order.
    pub fn pending(&self) -> impl Iterator<Item = &PendingMessage<P::Msg>> + '_ {
        self.core.pending()
    }

    /// Access to a registered process (for assertions in tests/harnesses).
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.core.process(id)
    }

    /// True if transaction `tx` has completed.
    pub fn is_complete(&self, tx: TxId) -> bool {
        self.core.is_complete(tx)
    }

    /// True if there is nothing left to do.
    pub fn is_quiescent(&self) -> bool {
        self.core.is_quiescent()
    }

    /// Executes one step: dispatches the earliest due invocation if any,
    /// otherwise delivers the message chosen by the scheduler — O(log n)
    /// under the heap schedulers, O(live) under the random adversary.
    pub fn step(&mut self) -> StepOutcome {
        self.core.step()
    }

    /// Manual (adversarial) driving: delivers the first pending message (in
    /// send order) matching `pred`, bypassing the scheduler.  Returns the
    /// delivered message id, or `None` if nothing matched.
    ///
    /// The adversary controls *order*, not *time*: the clock advances to
    /// `max(now, deliver_at) + 1` exactly as for a scheduled delivery, so a
    /// latency-stamped message delivered adversarially can never produce
    /// actions (e.g. a RESP) timestamped before its own delivery time.
    /// Under schedulers that stamp no delivery time (FIFO, random) the
    /// clamp is a no-op and the historical `now + 1` behaviour is
    /// unchanged — the Figs. 3–5 constructions drive those.
    pub fn deliver_where<F>(&mut self, pred: F) -> Option<MsgId>
    where
        F: Fn(&PendingMessage<P::Msg>) -> bool,
    {
        self.core.deliver_where(pred)
    }

    /// Manual driving: dispatches the next scheduled invocation for
    /// `client` without waiting for the engine to reach it.  Returns the
    /// transaction id, or `None` if no invocation is queued for that
    /// client.
    ///
    /// The clock clamp matches the engine's own invocation rule: the INV
    /// is recorded at `max(now, at) + 1`, never before the invocation's
    /// planned time (forcing controls *order* relative to other queued
    /// work, it does not rewind time).
    pub fn force_invoke(&mut self, client: ClientId) -> Option<TxId> {
        self.core.force_invoke(client)
    }

    /// Runs until no work remains (or the step cap is hit).  Returns the
    /// number of steps executed.
    pub fn run_until_quiescent(&mut self) -> u64 {
        self.core.run(&[])
    }

    /// Runs until transaction `tx` completes (or the system goes quiescent).
    /// Returns `true` if the transaction completed — which under a fault
    /// schedule includes completing as `Aborted`.
    pub fn run_until_complete(&mut self, tx: TxId) -> bool {
        self.core.run(&[tx]);
        self.is_complete(tx)
    }

    /// Runs until **any** transaction in `watch` completes (or the system
    /// goes quiescent).  Returns the first completed transaction in `watch`
    /// order — a deterministic tie-break when one step completes several.
    ///
    /// This is the open-loop driver's primitive: with one outstanding
    /// transaction per client it needs "wake me when any client frees", not
    /// [`Simulation::run_until_complete`]'s single-target wait (which would
    /// stall every other client's next arrival behind one slow
    /// transaction).  An empty `watch` returns `None` without stepping, and
    /// a `watch` with an already-complete member returns it without
    /// stepping — a driver that refills one client per call gets every
    /// transaction a single step or quiescence retired handed back in
    /// `watch` order before the clock moves again.
    ///
    /// Only the entry scan probes the transaction records; after that a
    /// step is followed by the commit gate (`DispatchCore::watched_commit`),
    /// so the wait costs O(1) per step that commits nothing.  Quiescent
    /// with watched transactions still in flight, a fault schedule's
    /// orphans are retired as aborted before the final scan, so the caller
    /// is never livelocked waiting on a transaction whose server died.
    pub fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
        if watch.is_empty() {
            return None;
        }
        self.core.run(watch);
        watch.iter().copied().find(|&tx| self.is_complete(tx))
    }

    /// Assembles the [`History`] of the run so far.  Rounds, C2C counts,
    /// versions-per-read and non-blocking flags are already in the
    /// transaction records, and the core logs them in INV order — the
    /// history's `(invoked_at, tx_id)` order — so this is one copy into a
    /// vector of exactly their number.
    pub fn history(&self) -> History {
        let history = History { records: self.core.records().to_vec() };
        debug_assert!(history.records.is_sorted_by_key(|r| (r.invoked_at, r.tx_id)));
        history
    }

    /// Drains the transactions committed since the previous drain, in RESP
    /// order, retiring the consumed commit-log prefix — the incremental
    /// feed for streaming certification.
    pub fn drain_commits(&mut self) -> CommitDrain {
        CommitDrain { records: self.core.drain_commits(), inv_floor: self.core.inv_floor() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgInfo, SimMessage};
    use crate::scheduler::{FifoScheduler, LatencyScheduler, RandomScheduler};
    use snow_obs::RecordingSink;
    use snow_core::{
        Effects, Key, ObjectId, ObjectRead, ReadOutcome, ServerId, TxOutcome, TxSpec, Value,
    };

    /// A toy read protocol: the client sends one request per object, each
    /// server replies with the initial value, the client responds when all
    /// replies are in.
    #[derive(Debug, Clone)]
    enum ToyMsg {
        Req { tx: TxId, object: ObjectId },
        Resp { tx: TxId, object: ObjectId },
    }

    impl SimMessage for ToyMsg {
        fn info(&self) -> MsgInfo {
            match self {
                ToyMsg::Req { tx, object } => MsgInfo::read_request(*tx, Some(*object)),
                ToyMsg::Resp { tx, object } => MsgInfo::read_response(*tx, Some(*object), 1),
            }
        }
    }

    enum ToyNode {
        Client {
            id: ClientId,
            outstanding: Option<(TxId, usize, Vec<ObjectRead>)>,
        },
        Server {
            id: ServerId,
        },
    }

    impl Process for ToyNode {
        type Msg = ToyMsg;

        fn id(&self) -> ProcessId {
            match self {
                ToyNode::Client { id, .. } => ProcessId::Client(*id),
                ToyNode::Server { id } => ProcessId::Server(*id),
            }
        }

        fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<ToyMsg>) {
            let ToyNode::Client { outstanding, .. } = self else {
                panic!("server invoked")
            };
            let objects = spec.objects();
            *outstanding = Some((tx_id, objects.len(), Vec::new()));
            for o in objects {
                effects.send(
                    ProcessId::Server(ServerId(o.0)),
                    ToyMsg::Req { tx: tx_id, object: o },
                );
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: ToyMsg, effects: &mut Effects<ToyMsg>) {
            match (self, msg) {
                (ToyNode::Server { .. }, ToyMsg::Req { tx, object }) => {
                    effects.send(from, ToyMsg::Resp { tx, object });
                }
                (ToyNode::Client { outstanding, .. }, ToyMsg::Resp { tx, object }) => {
                    if let Some((cur, want, got)) = outstanding {
                        if *cur == tx {
                            got.push(ObjectRead {
                                object,
                                key: Key::initial(),
                                value: Value::INITIAL,
                            });
                            if got.len() == *want {
                                effects.respond(
                                    tx,
                                    TxOutcome::Read(ReadOutcome {
                                        reads: got.clone(),
                                        tag: None,
                                    }),
                                );
                                *outstanding = None;
                            }
                        }
                    }
                }
                _ => panic!("unexpected message"),
            }
        }
    }

    fn toy_sim<S: Scheduler<ToyMsg>>(scheduler: S) -> Simulation<ToyNode, S> {
        let mut sim = Simulation::new(scheduler);
        sim.add_process(ToyNode::Client {
            id: ClientId(0),
            outstanding: None,
        });
        sim.add_process(ToyNode::Server { id: ServerId(0) });
        sim.add_process(ToyNode::Server { id: ServerId(1) });
        sim
    }

    #[test]
    fn toy_read_completes_under_fifo() {
        let mut sim = toy_sim(FifoScheduler::new());
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(!sim.is_complete(tx));
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
        assert!(sim.is_quiescent());

        let h = sim.history();
        assert_eq!(h.len(), 1);
        let rec = h.get(tx).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.rounds, 1);
        assert_eq!(rec.reads.len(), 2);
        assert!(rec.all_reads_nonblocking());
        assert_eq!(rec.max_versions_per_read(), 1);
        assert_eq!(rec.c2c_messages, 0);
    }

    #[test]
    fn toy_read_completes_under_random_and_latency_schedulers() {
        for seed in 0..5u64 {
            let mut sim = toy_sim(RandomScheduler::new(seed));
            let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
            sim.run_until_quiescent();
            assert!(sim.is_complete(tx), "seed {seed}");
        }
        let mut sim = toy_sim(LatencyScheduler::new(3, 1, 10));
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
        let rec = sim.history();
        assert!(rec.get(tx).unwrap().latency().unwrap() > 0);
    }

    #[test]
    fn manual_delivery_allows_adversarial_ordering() {
        let mut sim = toy_sim(FifoScheduler::new());
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        // Dispatch the invocation only.
        assert_eq!(sim.step(), StepOutcome::Invoked(tx));
        assert_eq!(sim.pending_count(), 2);
        // The pending view iterates in send order.
        let dsts: Vec<ProcessId> = sim.pending().map(|p| p.dst).collect();
        assert_eq!(
            dsts,
            vec![ProcessId::Server(ServerId(0)), ProcessId::Server(ServerId(1))]
        );
        // Deliver the request to s1 before the one to s0.
        let delivered = sim.deliver_where(|p| p.dst == ProcessId::Server(ServerId(1)));
        assert!(delivered.is_some());
        // No match for an already-delivered destination+direction.
        assert!(sim
            .deliver_where(|p| p.dst == ProcessId::Server(ServerId(99)))
            .is_none());
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
    }

    #[test]
    fn force_invoke_dispatches_early() {
        let mut sim = toy_sim(FifoScheduler::new());
        let tx = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(tx));
        assert_eq!(sim.force_invoke(ClientId(0)), None);
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
    }

    #[test]
    fn force_invoke_takes_the_earliest_plan_for_the_client() {
        let mut sim = toy_sim(FifoScheduler::new());
        let late = sim.invoke_at(500, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let early = sim.invoke_at(100, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(early));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(late));
    }

    #[test]
    fn run_until_complete_stops_at_target() {
        let mut sim = toy_sim(FifoScheduler::new());
        let tx1 = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let tx2 = sim.invoke_at(50, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert!(sim.run_until_complete(tx1));
        assert!(sim.is_complete(tx1));
        assert!(sim.run_until_complete(tx2));
    }

    #[test]
    fn run_until_any_complete_returns_the_first_finisher() {
        let mut sim = toy_sim(FifoScheduler::new());
        let slow = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let fast = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        // `fast` completes first even though `slow` leads the watch list.
        assert_eq!(sim.run_until_any_complete(&[slow, fast]), Some(fast));
        assert!(!sim.is_complete(slow));
        assert_eq!(sim.run_until_any_complete(&[slow]), Some(slow));
        // Empty watch: no stepping, no result.
        let before = sim.now();
        assert_eq!(sim.run_until_any_complete(&[]), None);
        assert_eq!(sim.now(), before);
        // Nothing left to complete a never-scheduled transaction.
        assert_eq!(sim.run_until_any_complete(&[TxId(99)]), None);
    }

    /// [`toy_sim`] with a second client, so two transactions can be in
    /// flight at once.
    fn two_client_sim<S: Scheduler<ToyMsg>>(scheduler: S) -> Simulation<ToyNode, S> {
        let mut sim = toy_sim(scheduler);
        sim.add_process(ToyNode::Client { id: ClientId(1), outstanding: None });
        sim
    }

    /// The one dispatch rule: an invocation keyed before every pending
    /// delivery is the next event.  (Under the historical "due" rule the
    /// fixed-latency run stamped it 53 — behind the request keyed 51, lag no
    /// client or server caused.)
    #[test]
    fn an_invocation_keyed_before_every_pending_delivery_dispatches_first() {
        use crate::topology::{Topology, TopologyScheduler};

        fn check<S: Scheduler<ToyMsg>>(scheduler: S) {
            let mut sim = two_client_sim(scheduler);
            let first = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
            let second = sim.invoke_at(10, ClientId(1), TxSpec::read(vec![ObjectId(1)]));
            assert_eq!(sim.step(), StepOutcome::Invoked(first));
            assert!(sim.pending().all(|p| p.delivery_key() >= 51), "the request is in flight");
            assert_eq!(sim.step(), StepOutcome::Invoked(second));
            assert_eq!(sim.history().get(second).unwrap().invoked_at, 11);
        }
        check(LatencyScheduler::new(1, 50, 50));
        let topology = Topology::single_dc(&snow_core::SystemConfig::mwmr(2, 1, 1));
        check(TopologyScheduler::new(std::sync::Arc::new(topology), 1));
    }

    #[test]
    fn run_until_any_complete_hands_back_a_finished_member_without_stepping() {
        let mut sim = toy_sim(FifoScheduler::new());
        let done = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let later = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert!(sim.run_until_complete(done));
        let (now, pending) = (sim.now(), sim.pending_count());
        // Already complete on entry: returned even from the back of the
        // list, and the clock and the network stay where they were.
        assert_eq!(sim.run_until_any_complete(&[later, done]), Some(done));
        assert_eq!((sim.now(), sim.pending_count()), (now, pending));
        assert!(!sim.is_complete(later));
    }

    #[test]
    fn run_until_any_complete_steps_past_commits_nobody_watches() {
        let mut sim = two_client_sim(FifoScheduler::new());
        let unwatched = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let watched = sim.invoke_at(1_000, ClientId(1), TxSpec::read(vec![ObjectId(1)]));
        // `unwatched` commits first; the commit gate sees it is not in the
        // watch list and the run goes on to the watched one.
        assert_eq!(sim.run_until_any_complete(&[watched]), Some(watched));
        assert!(sim.is_complete(unwatched));
        assert!(sim.now() > 1_000);
    }

    /// A quiescence that retires several watched transactions at once (the
    /// fault engine's orphan rule) hands them back one per call, in `watch`
    /// order, the later calls without moving the clock — what lets a driver
    /// refill one client per call and still inject in sweep order.
    #[test]
    fn orphans_retired_at_one_quiescence_come_back_in_watch_order() {
        use crate::fault::{EndpointSel, FaultAction, FaultRegion, FaultSchedule};

        let drop_everything = FaultSchedule::new(5).with_region(FaultRegion::always(
            FaultAction::Drop,
            EndpointSel::Any,
            EndpointSel::Any,
            0,
            u64::MAX,
        ));
        let mut sim = two_client_sim(FifoScheduler::new()).with_faults(drop_everything, None);
        let a = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let b = sim.invoke_at(0, ClientId(1), TxSpec::read(vec![ObjectId(1)]));
        // Both requests are dropped, the system goes quiescent and both
        // orphans abort at the same tick; `b` leads the watch list.
        assert_eq!(sim.run_until_any_complete(&[b, a]), Some(b));
        assert!(sim.is_complete(a), "one quiescence retires every orphan");
        let now = sim.now();
        assert_eq!(sim.run_until_any_complete(&[a]), Some(a));
        assert_eq!(sim.now(), now);
        let history = sim.history();
        assert!([a, b].iter().all(|&tx| {
            history.get(tx).unwrap().outcome.as_ref().is_some_and(|o| o.is_aborted())
        }));
    }

    /// Instrumentation is final at RESP: the toy client responds after any
    /// two responses, so with every response duplicated it responds on
    /// server 0's pair, and server 1's — delivered later — are stragglers.
    #[test]
    fn a_response_delivered_after_its_resp_is_not_instrumentation() {
        use crate::fault::{EndpointSel, FaultAction, FaultRegion, FaultSchedule};

        let duplicate_responses = FaultSchedule::new(1).with_region(FaultRegion::always(
            FaultAction::Duplicate,
            EndpointSel::AnyServer,
            EndpointSel::Any,
            0,
            u64::MAX,
        ));
        let mut sim = toy_sim(FifoScheduler::new()).with_faults(duplicate_responses, None);
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert_eq!(sim.run_until_quiescent(), 7, "INV, 2 requests, 4 responses");
        let history = sim.history();
        let servers: Vec<ServerId> = history.get(tx).unwrap().reads.iter().map(|r| r.server).collect();
        assert_eq!(servers, [ServerId(0), ServerId(0)]);
        assert_eq!(sim.drain_commits().records[0].reads.len(), 2, "drained ≡ final");
    }

    #[test]
    fn history_sorted_by_invocation_time() {
        let mut sim = toy_sim(FifoScheduler::new());
        let _t2 = sim.invoke_at(10, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        let t1 = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        sim.run_until_quiescent();
        let h = sim.history();
        assert_eq!(h.records[0].tx_id, t1);
    }

    #[test]
    fn bulk_invocation_scheduling_dispatches_in_time_order() {
        let mut sim = toy_sim(FifoScheduler::new());
        // Schedule in reverse time order; dispatch must be (at, tx) order.
        let txs: Vec<TxId> = (0..10u64)
            .rev()
            .map(|at| sim.invoke_at(at * 10, ClientId(0), TxSpec::read(vec![ObjectId(0)])))
            .collect();
        let mut invoked = Vec::new();
        while !sim.is_quiescent() {
            if let StepOutcome::Invoked(tx) = sim.step() {
                invoked.push(tx);
            }
        }
        let mut expected = txs.clone();
        expected.reverse(); // earliest planned time = last created
        assert_eq!(invoked, expected);
    }

    #[test]
    #[should_panic]
    fn duplicate_process_ids_are_rejected() {
        let mut sim = toy_sim(FifoScheduler::new());
        sim.add_process(ToyNode::Server { id: ServerId(0) });
    }

    /// Regression for the adversarial-delivery clock-skew bug: before the
    /// dispatch-core unification, `deliver_where` advanced `now += 1`
    /// without clamping to the delivered message's `deliver_at`, so a
    /// latency-stamped message delivered adversarially could enable a RESP
    /// timestamped *before* the delivery that caused it — silently
    /// widening/inverting the real-time intervals the checkers turn into
    /// precedence edges.  Post-fix, the clock clamps exactly like a
    /// scheduled delivery's.
    #[test]
    fn adversarial_delivery_cannot_rewind_time_before_deliver_at() {
        // Fixed 50-tick latency: the request sent at the INV (time 1) is
        // stamped deliver_at = 51.
        let mut sim = toy_sim(LatencyScheduler::new(1, 50, 50));
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.step(), StepOutcome::Invoked(tx));
        let request_deliver_at = sim.pending().next().unwrap().deliver_at.unwrap();
        assert_eq!(request_deliver_at, 51);

        // Adversarial delivery of the late-scheduled request must advance
        // the clock past its delivery time (pre-fix: now became 3).
        sim.deliver_where(|_| true).expect("request in flight");
        assert!(
            sim.now() > request_deliver_at,
            "delivery at now={} precedes its own deliver_at={request_deliver_at}",
            sim.now()
        );

        // Drain the reply adversarially too and check the derived history:
        // the RESP must not precede the delivery that enabled it.
        sim.deliver_where(|_| true).expect("reply in flight");
        assert!(sim.is_complete(tx));
        let responded_at = sim.history().get(tx).unwrap().responded_at.unwrap();
        assert!(
            responded_at > request_deliver_at,
            "RESP at {responded_at} precedes the enabling delivery time {request_deliver_at}"
        );
    }

    /// Companion regression for `force_invoke`: a forced invocation is
    /// dispatched ahead of other queued work, but its INV timestamp must
    /// never regress below the invocation's planned time.
    #[test]
    fn forced_invocation_cannot_regress_below_its_planned_time() {
        let mut sim = toy_sim(FifoScheduler::new());
        let tx = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(tx));
        let invoked_at = sim.history().get(tx).unwrap().invoked_at;
        assert!(
            invoked_at > 1_000,
            "forced INV at {invoked_at} regressed below its planned time 1000"
        );
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
    }

    /// Draining commits incrementally yields exactly the completed records
    /// of the final history, in RESP order, with identical enrichment —
    /// and the drain's `inv_floor` never runs ahead of a record a later
    /// drain returns.
    #[test]
    fn drain_commits_streams_the_history_in_resp_order() {
        // The toy client supports one outstanding transaction, so space the
        // invocations; the drain contract concerns completed records only.
        let mut sim = toy_sim(RandomScheduler::new(7));
        for i in 0..40u64 {
            sim.invoke_at(i * 40, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        }
        let mut drained = Vec::new();
        let mut floor = 0u64;
        while !sim.is_quiescent() {
            sim.step();
            let drain = sim.drain_commits();
            for rec in &drain.records {
                assert!(
                    rec.invoked_at >= floor,
                    "record invoked at {} below the promised floor {floor}",
                    rec.invoked_at
                );
            }
            assert!(drain.inv_floor >= floor, "inv_floor regressed");
            floor = drain.inv_floor;
            drained.extend(drain.records);
        }
        assert!(sim.drain_commits().records.is_empty(), "nothing left after quiescence");
        // RESP order, exhaustive, and enriched identically to history().
        assert!(drained
            .windows(2)
            .all(|w| (w[0].responded_at, w[0].tx_id) <= (w[1].responded_at, w[1].tx_id)));
        let mut expected: Vec<_> = sim
            .history()
            .records
            .into_iter()
            .filter(|r| r.is_complete())
            .collect();
        expected.sort_by_key(|r| (r.responded_at, r.tx_id));
        assert!(expected.len() >= 30, "most transactions should complete");
        assert_eq!(format!("{drained:?}"), format!("{expected:?}"));
    }

    /// The action log (the obs stream) of an adversarially driven run has
    /// monotone (non-decreasing) timestamps — the invariant the checkers'
    /// real-time precedence edges rely on.
    #[test]
    fn adversarially_driven_trace_timestamps_are_monotone() {
        let mut sim = toy_sim(LatencyScheduler::new(9, 1, 40)).with_sink(RecordingSink::new());
        for i in 0..6u64 {
            sim.invoke_at(i * 7, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        }
        // Mix forced invocations, adversarial deliveries and normal steps.
        let mut flip = 0u64;
        while !sim.is_quiescent() {
            flip += 1;
            match flip % 3 {
                0 => {
                    sim.force_invoke(ClientId(0));
                }
                1 => {
                    sim.deliver_where(|p| p.dst == ProcessId::Client(ClientId(0)));
                }
                _ => {}
            }
            if sim.step() == StepOutcome::Quiescent {
                break;
            }
        }
        let times: Vec<u64> = sim.drain_obs_events().iter().map(|e| e.event.at()).collect();
        // 6 INVs, 24 sends, 24 deliveries and the one RESP the toy client
        // (one outstanding read, overwritten by each forced INV) gets to.
        assert_eq!(times.len(), 55, "one event per external action");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace timestamps regressed: {times:?}"
        );
    }

    /// Regression: a crash window's `QueueInFlight` re-inserts the held
    /// message under the *same id* with `deliver_at = recover_at`.  When the
    /// pool judged heap entries by liveness alone, any unconsumed entry for
    /// that id (the topology scheduler used to peek, never pop) resurfaced
    /// the message under its old key: it was re-picked at once and the
    /// clock clamp leapt to `recover_at`, past every message keyed in
    /// between.
    #[test]
    fn queued_in_flight_messages_wait_their_turn_under_the_topology_scheduler() {
        use crate::fault::{Crash, CrashPolicy, FaultSchedule};
        use crate::topology::{Topology, TopologyScheduler, TICK};
        use std::collections::BTreeMap;

        const CLIENTS: u32 = 4;
        let config = snow_core::SystemConfig::mwmr(2, 2, 2);
        let topology = std::sync::Arc::new(Topology::single_dc(&config));
        let recover_at = 20 * TICK;
        let crashed = ProcessId::Server(ServerId(0));
        let schedule = FaultSchedule::new(3).with_crash(Crash {
            server: ServerId(0),
            at: 0,
            recover_at,
            policy: CrashPolicy::QueueInFlight,
        });
        let restart = |pid| match pid {
            ProcessId::Server(id) => ToyNode::Server { id },
            ProcessId::Client(_) => unreachable!("clients never crash"),
        };
        let mut sim = Simulation::new(TopologyScheduler::new(topology, 11))
            .with_faults(schedule, Some(Box::new(restart)));
        for c in 0..CLIENTS {
            sim.add_process(ToyNode::Client { id: ClientId(c), outstanding: None });
        }
        sim.add_process(ToyNode::Server { id: ServerId(0) });
        sim.add_process(ToyNode::Server { id: ServerId(1) });
        let txs: Vec<TxId> = (0..CLIENTS)
            .map(|c| sim.invoke_at(0, ClientId(c), TxSpec::read(vec![ObjectId(0), ObjectId(1)])))
            .collect();

        let (mut last_key, mut held) = (0, 0);
        loop {
            let before: BTreeMap<_, (u64, ProcessId)> =
                sim.pending().map(|p| (p.id, (p.delivery_key(), p.dst))).collect();
            let StepOutcome::Delivered(id) = sim.step() else {
                if sim.is_quiescent() {
                    break;
                }
                continue;
            };
            let (key, dst) = before[&id];
            assert!(key >= last_key, "message {id} keyed {key} delivered after key {last_key}");
            last_key = key;
            match sim.pending().find(|p| p.id == id) {
                Some(requeued) => {
                    assert_eq!(requeued.deliver_at, Some(recover_at));
                    held += 1;
                }
                None if dst == crashed => assert!(
                    sim.now() > recover_at,
                    "held message {id} reached the crashed server at {}",
                    sim.now()
                ),
                None => {}
            }
        }
        assert_eq!(held, CLIENTS, "every first request to the crashed server is held");
        assert!(txs.iter().all(|&tx| sim.is_complete(tx)));
    }
}
