//! The sharded parallel step loop: the workspace's second execution
//! substrate.
//!
//! [`ParallelSimulation`] partitions the processes of a deployment into
//! **shards** ([`shard_of`]: servers by `ServerId`, clients by `ClientId`)
//! and runs one instance of the workspace's single dispatch core
//! (`engine::DispatchCore` — **the same type** the serial
//! [`crate::Simulation`] wraps) per shard, each on its own worker thread.
//! Every core owns its delivery pool, `(at, TxId)`-keyed invocation heap,
//! [`Scheduler`] instance and transaction records, so shard-disjoint
//! deliveries proceed with no synchronization at all.
//!
//! # The deterministic epoch barrier
//!
//! Cross-shard sends never touch another shard's pool directly.  They are
//! buffered in a per-shard outbox and exchanged at an **epoch barrier**:
//!
//! 1. every worker folds the messages routed to it in the previous epoch
//!    into its pool and reports its *next processable virtual time* (the
//!    earliest delivery key, or the next due invocation's time);
//! 2. one leader computes the global watermark `min(reports) +
//!    EPOCH_WIDTH`; if no shard has work and nothing is in transit, the
//!    system is quiescent;
//! 3. every worker drains its sub-queues by the dispatch core's rules
//!    (`DispatchCore::run_epoch`), buffering cross-shard sends.  The
//!    watermark gates *whether
//!    the shard keeps stepping* — it steps while a due invocation or its
//!    earliest pending delivery falls below the watermark — while the
//!    scheduler stays the same unconstrained adversary it is on the
//!    serial engine (a random scheduler may well deliver a message keyed
//!    past the watermark while earlier ones are pending);
//! 4. the leader routes the union of the outboxes in `(deliver_at,
//!    MsgId)` order to the destination shards.  A cross-shard message is
//!    the same [`crate::PendingMessage`], [`crate::Causal`] stamp included,
//!    so the receiving shard derives exactly the round counts and
//!    non-blocking verdicts the serial engine would.
//!
//! Every decision in this cycle — watermark, routing order, per-shard
//! scheduling — is a pure function of per-shard state, so **the observable
//! history is a deterministic function of `(configuration, seeds, shard
//! count)` regardless of how the OS schedules the worker threads**.
//! Message ids are strided (`shard, shard + n, shard + 2n, …`), so id
//! assignment never races either.
//!
//! # Relation to the serial engine
//!
//! There is exactly one step-loop implementation in this workspace:
//! `DispatchCore` makes every invocation-vs-delivery choice, clock
//! advance and effect application for both substrates (see the private
//! `engine` module, whose fields no other module can reach).  With one
//! shard there is nothing to exchange: the engine takes an inline fast
//! path (no threads, watermark `u64::MAX`) that *is* the serial engine — a
//! 1-shard `ParallelSimulation` therefore reproduces the serial golden
//! histories **bit-identically**, pinned by the `parallel_determinism`
//! integration test over all 30 golden (protocol × scheduler) combos.  With more
//! shards the interleaving (and therefore each history's timings and
//! observed versions) legitimately differs from the serial engine's, but
//! it is still deterministic, still strictly serializable, and still
//! semantically equal on serial plans — pinned by the multi-shard cases in
//! `parallel_determinism`.

use crate::engine::DispatchCore;
use crate::fault::{FaultSchedule, RestartFn};
use crate::message::PendingMessage;
use crate::scheduler::Scheduler;
use crate::sim::CommitDrain;
use snow_core::TxRecord;
use snow_core::{ClientId, History, Process, ProcessId, TxId, TxSpec};
use snow_obs::{NullSink, ShardEvent, TraceSink};
use std::sync::{Barrier, Mutex};

/// Virtual-time width of one epoch: how far past the globally earliest
/// event each epoch may drain before the next barrier.
pub const EPOCH_WIDTH: u64 = 64;

/// The shard hosting process `id` when partitioning into `shards` shards:
/// servers by `ServerId`, clients by `ClientId`, both round-robin.  The
/// paper's protocols are per-object/per-server state machines, so this
/// partition preserves their semantics; co-locating a client with the
/// servers it talks to most is purely a performance knob.
pub fn shard_of(id: ProcessId, shards: usize) -> usize {
    match id {
        ProcessId::Server(s) => s.0 as usize % shards,
        ProcessId::Client(c) => c.0 as usize % shards,
    }
}

/// Shared barrier state of one parallel run.
struct ExchangeState<M> {
    /// Cross-shard messages buffered by the epoch that just ran.
    outbound: Vec<PendingMessage<M>>,
    /// Messages routed to each shard, applied at the top of the next epoch.
    inbound: Vec<Vec<PendingMessage<M>>>,
    /// Per-shard next-processable virtual times.
    reports: Vec<Option<u64>>,
    /// Set by the shard owning a watched transaction once it completes.
    watch_done: bool,
    /// The watermark every worker drains to in the current epoch.
    watermark: u64,
    /// Set by the leader when the run is over.
    done: bool,
    /// The first panic payload caught in any shard's epoch.  A panicking
    /// worker cannot simply unwind out of the loop — the others would
    /// block forever in `Barrier::wait` — so it keeps pacing the barrier
    /// protocol as an idle shard until the leader observes the poison,
    /// declares the run done, and every worker exits together; the driver
    /// then re-raises the payload.
    poisoned: Option<Box<dyn std::any::Any + Send>>,
}

/// A deterministic sharded simulation: the same
/// [`Process`]/[`crate::Effects`] contract as [`crate::Simulation`], executed by
/// one worker thread per shard with cross-shard messages exchanged at
/// deterministic epoch barriers.
///
/// Construction mirrors the serial engine: create with a scheduler (every
/// shard runs a clone), [`ParallelSimulation::add_process`] every process,
/// [`ParallelSimulation::invoke_at`] the plan, then run.  Use shard count 1
/// for a drop-in (bit-identical) replacement of the serial engine, and
/// shard count ≈ the number of physical cores for throughput.
///
/// `O` is the observability sink each shard's core emits virtual-time
/// [`snow_obs::ObsEvent`]s into; the default [`NullSink`] compiles the
/// emission sites away.  Swap sinks with
/// [`ParallelSimulation::with_sinks`] and drain per-shard streams with
/// [`ParallelSimulation::drain_obs_events`].
pub struct ParallelSimulation<P: Process, S, O: TraceSink = NullSink> {
    shards: Vec<DispatchCore<P, S, O>>,
    next_tx: u64,
    /// Commits drained from their shard but not yet released globally:
    /// shard clocks advance independently, so a record waits here until
    /// every shard's clock has passed its RESP time (see
    /// [`ParallelSimulation::drain_commits`]).
    holdback: Vec<TxRecord>,
}

impl<P, S> ParallelSimulation<P, S>
where
    P: Process,
    S: Scheduler<P::Msg> + Clone,
{
    /// Creates an empty simulation over `shards` shards (unobserved: the
    /// default [`NullSink`]).  Every shard runs a clone of `scheduler`, seed
    /// included: per-message draws are pure functions of the send, so one
    /// seed gives every logical message the latency it has on the serial
    /// engine, and a 1-shard run *is* the serial run.
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(shards: usize, scheduler: S) -> Self {
        assert!(shards > 0, "a simulation needs at least one shard");
        ParallelSimulation {
            shards: (0..shards)
                .map(|i| DispatchCore::new(i, shards as u64, scheduler.clone()))
                .collect(),
            next_tx: 0,
            holdback: Vec::new(),
        }
    }
}

impl<P, S, O> ParallelSimulation<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    /// Rebuilds the simulation around per-shard observability sinks (type
    /// changing: each core re-monomorphizes its emission sites for `O2`).
    /// `make_sink` builds shard `i`'s sink.  Set sinks before running.
    pub fn with_sinks<O2: TraceSink>(
        self,
        mut make_sink: impl FnMut(usize) -> O2,
    ) -> ParallelSimulation<P, S, O2> {
        ParallelSimulation {
            shards: self
                .shards
                .into_iter()
                .enumerate()
                .map(|(i, shard)| shard.with_sink(make_sink(i)))
                .collect(),
            next_tx: self.next_tx,
            holdback: self.holdback,
        }
    }

    /// Yields and clears every shard's observability events, concatenated
    /// in shard order and tagged with the emitting shard — virtual-time
    /// stamps only, a pure function of `(configuration, seeds, shards)`.
    /// With one shard the stream is byte-identical to the serial engine's
    /// [`crate::Simulation::drain_obs_events`].
    pub fn drain_obs_events(&mut self) -> Vec<ShardEvent> {
        let mut events = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            events.extend(
                shard
                    .drain_events()
                    .into_iter()
                    .map(|event| ShardEvent { shard: i as u32, event }),
            );
        }
        events
    }

    /// Attaches a [`FaultSchedule`] to the run (builder style; set it
    /// before running).  Every shard carries its own copy of the schedule
    /// plus a restart factory from `make_restart` (required to be `Some`
    /// for any shard when the schedule contains crash windows).  Fault
    /// decisions are pure per-message functions — send-side faults decided
    /// on the sending shard, crash windows on the destination shard — so
    /// the shards need no coordination, the epoch barrier is unaffected,
    /// and a faulty history stays a pure function of `(configuration,
    /// seeds, shard count, fault schedule)`; with one shard it is
    /// byte-identical to the serial engine's.
    pub fn with_faults(
        mut self,
        schedule: FaultSchedule,
        mut make_restart: impl FnMut(usize) -> Option<RestartFn<P>>,
    ) -> Self {
        for i in 0..self.shards.len() {
            self.shards[i].set_faults(schedule.clone(), make_restart(i));
        }
        self
    }

    /// Overrides the per-shard safety cap on steps (the serial engine's
    /// `with_max_steps`, applied to each shard independently).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        for shard in &mut self.shards {
            shard.set_max_steps(max_steps);
        }
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Registers a process on its [`shard_of`] shard.  Panics if a process
    /// with the same id exists.
    pub fn add_process(&mut self, process: P) {
        let id = process.id();
        let shard = shard_of(id, self.shards.len());
        self.shards[shard].add_process(process);
    }

    /// Schedules `spec` to be invoked by `client` at virtual time `at` on
    /// the client's shard.  Transaction ids are assigned globally in call
    /// order, exactly like the serial engine's.
    pub fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        let shard = shard_of(ProcessId::Client(client), self.shards.len());
        self.shards[shard].plan(at, tx, client, spec);
        tx
    }

    /// The maximum virtual time reached by any shard.
    pub fn now(&self) -> u64 {
        self.shards.iter().map(|s| s.now()).max().unwrap_or(0)
    }

    /// Number of messages currently in flight across all shards.
    pub fn pending_count(&self) -> usize {
        self.shards.iter().map(|s| s.pending_count()).sum()
    }

    /// True if transaction `tx` has completed.
    pub fn is_complete(&self, tx: TxId) -> bool {
        self.shards.iter().any(|s| s.is_complete(tx))
    }

    /// True if no shard has anything left to do.
    pub fn is_quiescent(&self) -> bool {
        self.shards.iter().all(|s| s.is_quiescent())
    }

    /// C2C sends attributed to `tx`, summed over the shards that made them.
    fn c2c_count(&self, tx: TxId) -> u32 {
        self.shards.iter().map(|s| s.c2c_count(tx)).sum()
    }

    /// Drains the transactions committed since the previous drain across
    /// every shard, in **global** RESP order, retiring each shard's
    /// consumed commit-log prefix — the sharded analogue of
    /// [`crate::Simulation::drain_commits`].
    ///
    /// Shard clocks advance independently, so a freshly drained record is
    /// only *released* once every shard's clock has passed its RESP time:
    /// any future commit on shard `i` is stamped strictly after
    /// `shards[i].now` (the dispatch clock clamp), so every record with
    /// `responded_at ≤ min(shard nows)` is globally final in RESP order.
    /// Later records wait in a holdback buffer for a later drain; a
    /// quiescent system releases everything.  The drain's `inv_floor`
    /// accounts for held-back records as well as in-flight and
    /// not-yet-dispatched invocations on every shard.
    pub fn drain_commits(&mut self) -> CommitDrain {
        for i in 0..self.shards.len() {
            let records = self.shards[i].new_commits(|tx| self.c2c_count(tx));
            self.shards[i].retire_drained_commits();
            self.holdback.extend(records);
        }
        self.holdback
            .sort_by_key(|r| (r.responded_at.unwrap_or(u64::MAX), r.tx_id));
        let released = if self.is_quiescent() {
            self.holdback.len()
        } else {
            let horizon = self.shards.iter().map(|s| s.now()).min().unwrap_or(0);
            self.holdback
                .partition_point(|r| r.responded_at.unwrap_or(u64::MAX) <= horizon)
        };
        let records: Vec<TxRecord> = self.holdback.drain(..released).collect();
        let inv_floor = self
            .shards
            .iter()
            .map(|s| s.inv_floor())
            .chain(self.holdback.iter().map(|r| r.invoked_at))
            .min()
            .unwrap_or(0);
        CommitDrain { records, inv_floor }
    }

    fn total_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps()).sum()
    }
}

impl<P, S, O> ParallelSimulation<P, S, O>
where
    P: Process + Send,
    P::Msg: Send,
    S: Scheduler<P::Msg> + Send,
    O: TraceSink + Send,
{
    /// Runs until no work remains anywhere (or a shard hits its step cap).
    /// Returns the number of steps executed across all shards.
    pub fn run_until_quiescent(&mut self) -> u64 {
        let steps = self.run(&[]);
        self.retire_faulted();
        steps
    }

    /// Runs until transaction `tx` completes (or the system goes
    /// quiescent).  Returns `true` if the transaction completed — which
    /// under a fault schedule includes completing as `Aborted`.
    pub fn run_until_complete(&mut self, tx: TxId) -> bool {
        self.run(&[tx]);
        self.retire_faulted();
        self.is_complete(tx)
    }

    /// Runs until **any** transaction in `watch` completes (or the system
    /// goes quiescent).  Returns the first completed transaction in `watch`
    /// order.  The open-loop driver's primitive (see
    /// [`crate::Simulation::run_until_any_complete`]); an empty `watch`
    /// returns `None` without running, and an already-complete member is
    /// returned without running — an epoch usually retires several watched
    /// transactions, and a driver that refills one client per call collects
    /// the rest here instead of paying a thread spawn per completion.
    pub fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
        if watch.is_empty() {
            return None;
        }
        if let Some(&tx) = watch.iter().find(|&&tx| self.is_complete(tx)) {
            return Some(tx);
        }
        self.run(watch);
        self.retire_faulted();
        watch.iter().copied().find(|&tx| self.is_complete(tx))
    }

    /// Fault-engine retirement at quiescence: asks every shard to retire
    /// its orphaned transactions (a per-core no-op unless that shard both
    /// carries a fault schedule and has nothing left to do — a run that
    /// stopped early because a watched transaction completed retires
    /// nothing).  The decision itself lives in the dispatch core.
    fn retire_faulted(&mut self) {
        if !self.is_quiescent() {
            return;
        }
        for shard in &mut self.shards {
            shard.abort_orphans();
        }
    }

    /// The epoch-barrier driver (see the module docs for the cycle).  An
    /// empty `watch` means "run to quiescence"; otherwise the run stops at
    /// the epoch boundary after any watched transaction completes.
    fn run(&mut self, watch: &[TxId]) -> u64 {
        let start = self.total_steps();
        if self.shards.len() == 1 {
            // Inline fast path: one shard is the serial engine — no
            // threads, no exchange, watermark wide open.
            self.shards[0].run_epoch(u64::MAX, watch);
            return self.total_steps() - start;
        }
        let shard_count = self.shards.len();
        let state = Mutex::new(ExchangeState {
            outbound: Vec::new(),
            inbound: (0..shard_count).map(|_| Vec::new()).collect(),
            reports: vec![None; shard_count],
            watch_done: false,
            watermark: 0,
            done: false,
            poisoned: None,
        });
        let barrier = Barrier::new(shard_count);
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                scope.spawn(|| worker(shard, &state, &barrier, shard_count, watch));
            }
        });
        // Re-raise the first panic any shard's epoch produced (e.g. the
        // max_steps livelock assert), now that every worker has exited the
        // barrier protocol cleanly.
        if let Some(payload) = state.into_inner().expect("exchange lock").poisoned {
            std::panic::resume_unwind(payload);
        }
        self.total_steps() - start
    }

    /// Assembles the [`History`] of the run so far: per-transaction records
    /// from the invoking client's shard (rounds and read instrumentation
    /// included) with the cross-shard sum of C2C sends.  With one shard
    /// this is byte-for-byte the serial engine's
    /// [`crate::Simulation::history`].
    pub fn history(&self) -> History {
        let invoked = self.shards.iter().map(|s| s.record_count()).sum();
        let mut history = History { records: Vec::with_capacity(invoked) };
        for shard in &self.shards {
            shard.collect_records(&mut history, |tx| self.c2c_count(tx));
        }
        history.records.sort_by_key(|r| (r.invoked_at, r.tx_id));
        history
    }
}

/// One worker's epoch cycle.  Four `Barrier::wait`s per epoch, bracketing
/// the two leader-only phases:
///
/// 1. every worker applies its inbound messages and reports its next
///    processable time; *wait*; the leader computes the watermark or
///    declares the run over; *wait*;
/// 2. every worker reads the watermark (or breaks) and drains its epoch;
/// 3. every worker pushes its outbox; *wait*; the leader routes the union
///    in `(deliver_at, MsgId)` order to the destination shards; *wait*
///    (so no worker starts the next epoch's inbound take mid-routing).
fn worker<P, S, O>(
    shard: &mut DispatchCore<P, S, O>,
    state: &Mutex<ExchangeState<P::Msg>>,
    barrier: &Barrier,
    shard_count: usize,
    watch: &[TxId],
) where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    // Epoch ordinal on this shard, for the observability sink only.
    let mut epoch = 0u64;
    // True once this shard's epoch panicked: the shard may be mid-mutation,
    // so the worker stops touching it and paces the barrier protocol as an
    // idle shard (reporting no work) until the leader declares the run
    // done — unwinding out of the loop instead would strand the other
    // workers in `Barrier::wait` forever.
    let mut dead = false;
    loop {
        // Apply the messages routed to this shard, then report.
        let inbound = {
            let mut st = state.lock().expect("exchange lock");
            std::mem::take(&mut st.inbound[shard.index()])
        };
        if !dead {
            for msg in inbound {
                shard.import(msg);
            }
        }
        {
            let mut st = state.lock().expect("exchange lock");
            st.reports[shard.index()] = if dead { None } else { shard.next_processable() };
            if !dead && watch.iter().any(|&tx| shard.is_complete(tx)) {
                st.watch_done = true;
            }
        }
        if barrier.wait().is_leader() {
            let mut st = state.lock().expect("exchange lock");
            let global = st.reports.iter().filter_map(|t| *t).min();
            st.done = global.is_none() || st.watch_done || st.poisoned.is_some();
            if let Some(earliest) = global {
                st.watermark = earliest.saturating_add(EPOCH_WIDTH);
            }
        }
        barrier.wait();
        let watermark = {
            let st = state.lock().expect("exchange lock");
            if st.done {
                break;
            }
            st.watermark
        };
        // Drain this epoch, then hand the outbox to the router.
        if !dead {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shard.run_epoch(watermark, watch)
            })) {
                Ok(steps) => {
                    shard.note_epoch(epoch, watermark, steps);
                    epoch += 1;
                    let mut st = state.lock().expect("exchange lock");
                    shard.take_outbox(&mut st.outbound);
                }
                Err(payload) => {
                    dead = true;
                    let mut st = state.lock().expect("exchange lock");
                    st.poisoned.get_or_insert(payload);
                }
            }
        }
        if barrier.wait().is_leader() {
            let mut st = state.lock().expect("exchange lock");
            let mut outbound = std::mem::take(&mut st.outbound);
            outbound.sort_by_key(|m| (m.delivery_key(), m.id.0));
            for msg in outbound {
                let dest = shard_of(msg.dst, shard_count);
                st.inbound[dest].push(msg);
            }
        }
        barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FifoScheduler, LatencyScheduler, RandomScheduler};
    use crate::Simulation;
    use snow_obs::{ObsEvent, RecordingSink};
    use std::collections::BTreeMap;
    use snow_core::{
        Effects, Key, MsgInfo, ObjectId, ObjectRead, ProtocolMessage, ReadOutcome, ServerId,
        TxOutcome, Value,
    };

    /// A toy read protocol spanning shards: the client sends one request
    /// per object to the server hosting it (`ServerId = ObjectId`), each
    /// server replies, the client responds when all replies are in.
    #[derive(Debug, Clone)]
    enum ToyMsg {
        Req { tx: TxId, object: ObjectId },
        Resp { tx: TxId, object: ObjectId },
    }

    impl ProtocolMessage for ToyMsg {
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
            // Keyed by transaction so the engine tests may overlap
            // invocations from one client (the real protocols rely on the
            // driver for one-outstanding well-formedness; the toy doesn't).
            outstanding: BTreeMap<TxId, (usize, Vec<ObjectRead>)>,
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
            outstanding.insert(tx_id, (objects.len(), Vec::new()));
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
                    if let Some((want, got)) = outstanding.get_mut(&tx) {
                        got.push(ObjectRead {
                            object,
                            key: Key::initial(),
                            value: Value::INITIAL,
                        });
                        if got.len() == *want {
                            effects.respond(
                                tx,
                                TxOutcome::Read(ReadOutcome { reads: got.clone(), tag: None }),
                            );
                            outstanding.remove(&tx);
                        }
                    }
                }
                _ => panic!("unexpected message"),
            }
        }
    }

    fn deploy<S: Scheduler<ToyMsg> + Clone>(
        shards: usize,
        clients: u32,
        servers: u32,
        scheduler: S,
    ) -> ParallelSimulation<ToyNode, S> {
        let mut sim = ParallelSimulation::new(shards, scheduler);
        for c in 0..clients {
            sim.add_process(ToyNode::Client { id: ClientId(c), outstanding: BTreeMap::new() });
        }
        for s in 0..servers {
            sim.add_process(ToyNode::Server { id: ServerId(s) });
        }
        sim
    }

    fn plan(sim: &mut ParallelSimulation<ToyNode, impl Scheduler<ToyMsg>>, clients: u32) -> Vec<TxId> {
        let mut txs = Vec::new();
        for round in 0..6u64 {
            for c in 0..clients {
                // Every read spans several servers, so shards must talk.
                txs.push(sim.invoke_at(
                    round * 10,
                    ClientId(c),
                    TxSpec::read(vec![ObjectId(c), ObjectId((c + 1) % 4), ObjectId((c + 2) % 4)]),
                ));
            }
        }
        txs
    }

    #[test]
    fn one_shard_matches_the_serial_engine_bit_for_bit() {
        let run_serial = |seed: u64| {
            let mut sim = Simulation::new(RandomScheduler::new(seed));
            for c in 0..4 {
                sim.add_process(ToyNode::Client { id: ClientId(c), outstanding: BTreeMap::new() });
            }
            for s in 0..4 {
                sim.add_process(ToyNode::Server { id: ServerId(s) });
            }
            let mut txs = Vec::new();
            for round in 0..6u64 {
                for c in 0..4u32 {
                    txs.push(sim.invoke_at(
                        round * 10,
                        ClientId(c),
                        TxSpec::read(vec![
                            ObjectId(c),
                            ObjectId((c + 1) % 4),
                            ObjectId((c + 2) % 4),
                        ]),
                    ));
                }
            }
            let steps = sim.run_until_quiescent();
            (format!("{:?}", sim.history()), sim.now(), steps)
        };
        for seed in [3u64, 17, 99] {
            let mut par = deploy(1, 4, 4, RandomScheduler::new(seed));
            plan(&mut par, 4);
            let steps = par.run_until_quiescent();
            let (serial_history, serial_now, serial_steps) = run_serial(seed);
            assert_eq!(format!("{:?}", par.history()), serial_history, "seed {seed}");
            assert_eq!(par.now(), serial_now, "seed {seed}");
            assert_eq!(steps, serial_steps, "seed {seed}");
        }
    }

    #[test]
    fn multi_shard_runs_are_deterministic_per_seed_and_shard_count() {
        let run = |shards: usize, seed: u64| {
            let mut sim = deploy(shards, 4, 4, RandomScheduler::new(seed));
            let txs = plan(&mut sim, 4);
            sim.run_until_quiescent();
            for tx in &txs {
                assert!(sim.is_complete(*tx), "{shards} shards, seed {seed}: {tx}");
            }
            assert!(sim.is_quiescent());
            format!("{:?}", sim.history())
        };
        for shards in [2usize, 3, 4] {
            assert_eq!(run(shards, 7), run(shards, 7), "{shards} shards not reproducible");
        }
        // Different shard counts legitimately interleave differently…
        assert_ne!(run(1, 7), run(4, 7));
    }

    #[test]
    fn cross_shard_instrumentation_matches_the_single_shard_semantics() {
        // Every transaction is one causal round and three non-blocking
        // single-version reads, no matter how the processes are sharded.
        for shards in [1usize, 2, 4] {
            let mut sim = deploy(shards, 4, 4, LatencyScheduler::new(5, 1, 16));
            let txs = plan(&mut sim, 4);
            sim.run_until_quiescent();
            let history = sim.history();
            assert_eq!(history.len(), txs.len());
            for rec in &history.records {
                assert!(rec.is_complete(), "{shards} shards: {}", rec.tx_id);
                assert_eq!(rec.rounds, 1, "{shards} shards: {}", rec.tx_id);
                assert_eq!(rec.reads.len(), 3, "{shards} shards: {}", rec.tx_id);
                assert!(
                    rec.all_reads_nonblocking(),
                    "{shards} shards: {}",
                    rec.tx_id
                );
                assert_eq!(rec.c2c_messages, 0);
            }
        }
    }

    #[test]
    fn run_until_complete_stops_at_the_watched_transaction() {
        let mut sim = deploy(2, 2, 4, FifoScheduler::new());
        let first = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        let later = sim.invoke_at(50_000, ClientId(1), TxSpec::read(vec![ObjectId(0)]));
        assert!(sim.run_until_complete(first));
        assert!(sim.is_complete(first));
        assert!(!sim.is_complete(later));
        assert!(sim.run_until_complete(later));
    }

    /// Interleaving drains with multi-shard runs yields exactly the
    /// completed records of the final history, in global RESP order, with
    /// `inv_floor` watermarks that no later-released record undercuts.
    #[test]
    fn drain_commits_releases_in_global_resp_order_across_shards() {
        let mut sim = deploy(4, 4, 4, LatencyScheduler::new(21, 1, 16));
        let txs = plan(&mut sim, 4);
        let mut drained = Vec::new();
        let mut floor = 0u64;
        // Drain after every completion wave, exercising the holdback path
        // while shard clocks are genuinely skewed.
        loop {
            let remaining: Vec<TxId> = txs
                .iter()
                .copied()
                .filter(|&tx| !sim.is_complete(tx))
                .collect();
            if remaining.is_empty() {
                break;
            }
            sim.run_until_any_complete(&remaining);
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
        sim.run_until_quiescent();
        drained.extend(sim.drain_commits().records);
        assert!(drained
            .windows(2)
            .all(|w| (w[0].responded_at, w[0].tx_id) <= (w[1].responded_at, w[1].tx_id)));
        let mut expected: Vec<_> = sim.history().records;
        expected.sort_by_key(|r| (r.responded_at, r.tx_id));
        assert_eq!(format!("{drained:?}"), format!("{expected:?}"));
    }

    /// The commit gate in `run_epoch` stops an epoch only for a *watched*
    /// commit: on two shards an unwatched transaction commits first and the
    /// run keeps going, epoch after epoch, until the watched one does.
    #[test]
    fn run_until_any_complete_runs_past_unwatched_commits_across_shards() {
        let mut sim = deploy(2, 2, 4, FifoScheduler::new());
        // Clients 0 and 1 sit on different shards; both reads cross shards.
        let unwatched = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        let watched = sim.invoke_at(50_000, ClientId(1), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.run_until_any_complete(&[watched]), Some(watched));
        assert!(sim.is_complete(unwatched));
        // Already complete: handed back without running another epoch.
        let now = sim.now();
        assert_eq!(sim.run_until_any_complete(&[unwatched, watched]), Some(unwatched));
        assert_eq!(sim.now(), now);
    }

    #[test]
    fn message_ids_are_strided_per_shard() {
        let mut sim = deploy(4, 4, 4, FifoScheduler::new());
        plan(&mut sim, 4);
        let mut sim = sim.with_sinks(|_| RecordingSink::new());
        sim.run_until_quiescent();
        // Shard i only ever assigns ids ≡ i (mod 4): every send in its obs
        // stream carries such an id.
        let mut sends = 0;
        for e in sim.drain_obs_events() {
            if let ObsEvent::MessageSent { msg, .. } = e.event {
                assert_eq!(msg % 4, e.shard as u64, "shard {} id {msg}", e.shard);
                sends += 1;
            }
        }
        assert_eq!(sends, 144, "24 reads × 3 requests, each answered");
    }

    #[test]
    #[should_panic(expected = "exceeded 50 steps")]
    fn one_shard_panicking_propagates_instead_of_deadlocking_the_barrier() {
        // Shard 0 blows its step cap mid-epoch while shard 1 is already
        // idle at the barrier.  The panic must surface from
        // run_until_quiescent (via the poison protocol), not strand the
        // other worker in Barrier::wait forever.
        let mut sim = deploy(2, 2, 2, FifoScheduler::new()).with_max_steps(50);
        for _ in 0..40 {
            sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        }
        sim.invoke_at(0, ClientId(1), TxSpec::read(vec![ObjectId(1)]));
        sim.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ParallelSimulation::<ToyNode, FifoScheduler>::new(0, FifoScheduler::new());
    }

    #[test]
    #[should_panic]
    fn duplicate_process_ids_are_rejected() {
        let mut sim = deploy(2, 1, 1, FifoScheduler::new());
        sim.add_process(ToyNode::Server { id: ServerId(0) });
    }
}
