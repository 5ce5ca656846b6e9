//! The simulator: one [`Simulation`] type that owns a deployment's
//! processes and every structure its step loop needs, and makes **every
//! dispatch decision in the workspace** — invocation-vs-delivery choice,
//! clock advance, handler execution, effect application, step accounting,
//! the one wait loop behind every `run_until_*` (`Simulation::run`) and the
//! adversarial driving entry points ([`Simulation::deliver_where`],
//! [`Simulation::force_invoke`]).  Its fields — the pool, the clock, the
//! process table, the fault state — are private to this module, so a
//! second dispatch loop elsewhere cannot compile.
//!
//! # Event queue and complexity contract
//!
//! The simulator orders events with two heaps and looks everything else up
//! by index, so the step loop neither scans nor walks a tree:
//!
//! * in-flight messages live in a [`MessagePool`] — a slab whose freed
//!   slots are reused, and a `(delivery_time, MsgId, slot)` binary heap for
//!   O(log n) earliest-delivery pops; the random adversary's rank selection
//!   in send order is an O(live) pass over the slab instead (see
//!   [`crate::pool`]).  A dispatch peeks at the heap once: the peek decides
//!   whether an invocation is due, and the heap scheduler's pick pops the
//!   entry it found;
//! * planned invocations live in a `BinaryHeap` keyed by `(at, TxId)`, so
//!   scheduling n invocations is O(n log n) total and the next due
//!   invocation is an O(1) peek;
//! * transaction records live in a **record log**: a `Vec` in INV order —
//!   the clock clamp stamps every INV after the previous one, so the log is
//!   sorted by `(invoked_at, tx_id)` as it is written — beside a dense
//!   `TxId → slot` vector.  Every message carries its causal stamp
//!   ([`Causal`]), and the send path's `stamp` folds it into the record it
//!   indexes to as the actions happen (rounds, C2C counts, read
//!   instrumentation), so [`Simulation::take_history`] moves the log out
//!   as the run's history, and [`Simulation::history`] is one copy of it,
//!   in order, into a vector of exactly its length.  The earliest
//!   transaction still in flight — what bounds a drain's invocation floor
//!   — is a cursor into the log that only moves forward;
//! * commits live in a **commit log** of ids in RESP order, which
//!   [`Simulation::drain_commit_ids`] empties into the caller's buffer;
//!   the records stay in the record log, read in place through
//!   [`Simulation::record`];
//! * processes live in a **process table**: one slot vector per role,
//!   indexed by `ClientId` / `ServerId`.
//!
//! Per step the simulator therefore does O(log n) heap work, O(1) lookups
//! and the process handler's own cost under [`crate::LatencyScheduler`]
//! (the random adversary's pick is O(live)).  A handler
//! writes its output into the simulator's one [`Effects`] buffer, which is
//! drained in place and keeps its capacity for the next handler, each
//! message moving once into the pool and once out of it:
//!
//! * **in** — `Simulation::apply_effects` drains the buffer where it lies,
//!   borrowing it beside the pool, the scheduler and the record log (each
//!   a field of its own, so nothing is taken out of `self` and put back).
//!   For each send it first settles everything the envelope needs — the
//!   causal stamp, the id, and the delivery time (the scheduler's draw,
//!   then the fault verdict's say) — and then writes the
//!   [`PendingMessage`] once, as the value of its pool slot
//!   ([`MessagePool::insert`]).  A fault-engine duplicate is the one
//!   `Clone` of a payload, made from the original's slot;
//! * **out** — a pick ([`crate::Scheduler::next`],
//!   [`Simulation::deliver_where`]) names the slot of the message it chose
//!   and leaves the message there.  The engine reads the header (times,
//!   endpoints, stamp, classification) in place, runs the crash gate only
//!   under a fault schedule, and moves the payload out of the slot once,
//!   into the receiving handler ([`MessagePool::take`]).
//!
//! Adversarial driving trades the heap for expressiveness: it takes the
//! first match in send order, one pass over the slab.
//!
//! # The clock invariant
//!
//! All clock movement funnels through `Simulation::advance_past`:
//! dispatching an event advances `now` to `max(now, event_time) + 1`, so
//! **no event is ever dispatched at a clock earlier than its own
//! timestamp** — a delivery never happens before its scheduler-stamped
//! `deliver_at`, a (possibly forced) invocation never before its planned
//! `at`.  Adversaries control *order*, never *time*.  The paper's SNOW
//! arguments and the strict-serializability checkers derive real-time
//! precedence edges from these timestamps, so a violation would silently
//! widen or invert the intervals they reason about; debug assertions
//! downstream of the clamp — the delivery-timestamp check in
//! `Simulation::deliver` and the monotonicity check in
//! `Simulation::audit_clock` — keep the invariant audited.
//!
//! Determinism: a run is a pure function of `(configuration, scheduler
//! seed, invocation plan)` — verified by the `determinism` integration test
//! against committed golden histories.

use crate::fault::{CrashPolicy, FaultSchedule, FaultState, RestartFn, SendVerdict};
use crate::message::{Causal, MsgId, MsgInfo, MsgKind, PendingMessage, SimMessage as _};
use crate::pool::{MessagePool, Slot};
use crate::scheduler::Scheduler;
use crate::tables::{ProcessTable, RecordLog};
use snow_core::{
    ClientId, Effects, History, Process, ProcessId, ReadResult, TxId, TxRecord, TxSpec,
};
use snow_obs::{NullSink, ObsEvent, ShardEvent, TraceSink};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// The step cap every [`Simulation`] applies unless
/// [`Simulation::with_max_steps`] overrides it.  The golden/parity
/// harnesses run under this default, so the fixtures and every other run
/// share one cap.
pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

/// What a single simulation step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An invocation was dispatched to a client.
    Invoked(TxId),
    /// A message was delivered.
    Delivered(MsgId),
    /// Nothing left to do: no pending messages and no future invocations.
    Quiescent,
}

/// One batch of newly committed transactions drained from the simulator,
/// by value (see [`Simulation::drain_commits`]; streaming certification
/// reads them in place through [`Simulation::drain_commit_ids`]).
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
    pub records: Vec<TxRecord>,
    /// Lower bound on every future drain's `invoked_at` values.
    pub inv_floor: u64,
}

/// A scheduled invocation, ordered by `(at, tx)` for the invocation queue.
#[derive(Debug, Clone)]
struct QueuedInvocation {
    at: u64,
    tx: TxId,
    client: ClientId,
    spec: TxSpec,
}

impl PartialEq for QueuedInvocation {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tx) == (other.at, other.tx)
    }
}
impl Eq for QueuedInvocation {}
impl PartialOrd for QueuedInvocation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedInvocation {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (at, tx) on top.
        (other.at, other.tx).cmp(&(self.at, self.tx))
    }
}

/// The commit log: transactions in RESP order, minus the prefix already
/// drained.  `live[0]` is commit number `retired`.
#[derive(Debug, Default)]
struct CommitLog {
    live: VecDeque<TxId>,
    retired: u64,
}

impl CommitLog {
    /// Total number of commits (RESP actions) ever logged, drained entries
    /// included.
    #[inline]
    fn count(&self) -> u64 {
        self.retired + self.live.len() as u64
    }

    /// The live entries from commit number `cursor` (at least `retired`)
    /// on, in RESP order.  O(entries yielded): the wait loop's commit gate
    /// asks for the last one or two entries of an arbitrarily long log
    /// after every step.
    #[inline]
    fn since(&self, cursor: u64) -> impl Iterator<Item = TxId> + '_ {
        self.live.range((cursor - self.retired) as usize..).copied()
    }

    /// Takes every live entry, in RESP order, so a drained log stays
    /// O(drain window) instead of O(transactions).
    fn drain(&mut self) -> impl Iterator<Item = TxId> + '_ {
        self.retired += self.live.len() as u64;
        self.live.drain(..)
    }
}

/// The message ids: issued densely, in send order.
#[derive(Debug, Default)]
struct MsgIds {
    next: u64,
    /// `(sent_at, src)` of the last id issued, kept in debug builds for
    /// [`MsgIds::issue`]'s send-order assertion.
    last_send: Option<(u64, ProcessId)>,
}

impl MsgIds {
    /// The id of the next send, by `src` at `now`.  Ids are issued in send
    /// order and every tick runs one handler, so id order is `(sent_at,
    /// src, emission order)` order — which is why the pool's `(key, id)`
    /// pop breaks equal-key ties by the sends' coordinates.
    #[inline]
    fn issue(&mut self, src: ProcessId, now: u64) -> MsgId {
        if cfg!(debug_assertions) {
            assert!(
                self.last_send
                    .is_none_or(|(at, by)| at < now || (at, by) == (now, src)),
                "id {} issued to {src} at {now} after an id issued at {:?}",
                self.next,
                self.last_send
            );
            self.last_send = Some((now, src));
        }
        let id = MsgId(self.next);
        self.next += 1;
        id
    }
}

/// A deterministic simulation of a set of processes exchanging messages over
/// reliable asynchronous channels.  See the module docs.
///
/// `O` is the observability sink ([`snow_obs::TraceSink`]) the simulator
/// emits [`ObsEvent`]s into.  The default [`NullSink`] has `ENABLED =
/// false`, so every emission site — written `if O::ENABLED { … }` —
/// monomorphizes away entirely.  Swap the sink with
/// [`Simulation::with_sink`] and drain events with
/// [`Simulation::drain_obs_events`].  All stamps are **virtual ticks**
/// (`self.now`); the simulator never reads a wall clock.
pub struct Simulation<P: Process, S, O: TraceSink = NullSink> {
    processes: ProcessTable<P>,
    pool: MessagePool<P::Msg>,
    invocations: BinaryHeap<QueuedInvocation>,
    scheduler: S,
    /// One record per invoked transaction, in INV order, instrumentation
    /// (rounds, C2C counts, read results) folded in as the actions happen.
    records: RecordLog,
    commits: CommitLog,
    /// Time of the last external action (`Simulation::audit_clock`).
    last_action_at: u64,
    now: u64,
    ids: MsgIds,
    next_tx: u64,
    steps: u64,
    max_steps: u64,
    /// The one output buffer every handler writes into;
    /// `Simulation::apply_effects` drains it where it lies, and it keeps
    /// its capacity.
    effects: Effects<P::Msg>,
    /// Observability sink (virtual-time events only; `NullSink` by
    /// default, which compiles the emission sites away).
    sink: O,
    /// Fault engine state (`None` = fault-free: every fault check is
    /// guarded by `is_some()`, so an unfaulted run takes no fault path and
    /// its history is byte-identical to the same run with an empty
    /// schedule).
    faults: Option<FaultState<P>>,
}

impl<P, S> Simulation<P, S>
where
    P: Process,
    S: Scheduler<P::Msg>,
{
    /// Creates an empty simulation driven by `scheduler` (unobserved: the
    /// default [`NullSink`]; capped at [`DEFAULT_MAX_STEPS`]).
    pub fn new(scheduler: S) -> Self {
        Simulation {
            processes: ProcessTable::new(),
            pool: MessagePool::new(),
            invocations: BinaryHeap::new(),
            scheduler,
            records: RecordLog::default(),
            commits: CommitLog::default(),
            last_action_at: 0,
            now: 0,
            ids: MsgIds::default(),
            next_tx: 0,
            steps: 0,
            max_steps: DEFAULT_MAX_STEPS,
            effects: Effects::new(0),
            sink: NullSink,
            faults: None,
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
    /// changing: the emission sites re-monomorphize for `O2`).  Set the
    /// sink before running; events emitted into a previous sink do not
    /// carry over.
    pub fn with_sink<O2: TraceSink>(self, sink: O2) -> Simulation<P, S, O2> {
        Simulation {
            processes: self.processes,
            pool: self.pool,
            invocations: self.invocations,
            scheduler: self.scheduler,
            records: self.records,
            commits: self.commits,
            last_action_at: self.last_action_at,
            now: self.now,
            ids: self.ids,
            next_tx: self.next_tx,
            steps: self.steps,
            max_steps: self.max_steps,
            effects: self.effects,
            sink,
            faults: self.faults,
        }
    }

    /// Yields and clears the observability events collected so far, all
    /// tagged shard 0 and stamped with virtual ticks.  Empty for
    /// non-recording sinks such as [`NullSink`].
    pub fn drain_obs_events(&mut self) -> Vec<ShardEvent> {
        self.sink.drain().into_iter().map(|event| ShardEvent { shard: 0, event }).collect()
    }

    /// Overrides the safety cap on the number of steps a run may take.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
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
    /// the fault checks are guarded by the state's presence, and histories
    /// stay byte-identical to an unfaulted run.
    ///
    /// With a schedule attached, the run loops retire transactions that can
    /// no longer complete (their messages dropped, their server's state
    /// lost) as [`snow_core::TxOutcome::Aborted`] once the system goes
    /// quiescent, so histories stay complete under faults.
    pub fn with_faults(mut self, schedule: FaultSchedule, restart: Option<RestartFn<P>>) -> Self {
        self.faults = Some(FaultState::new(schedule, restart));
        self
    }

    /// Registers a process.  Panics if a process with the same id exists.
    pub fn add_process(&mut self, process: P) {
        let id = process.id();
        let prev = self.processes.insert(id, process);
        assert!(prev.is_none(), "duplicate process id {id}");
    }

    /// Schedules `spec` to be invoked by `client` at simulation time `at` —
    /// an O(log n) heap push.  Returns the transaction id the invocation
    /// will carry.  Dispatch order is deterministic: earliest `(at, tx)`
    /// first.
    pub fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        self.invocations.push(QueuedInvocation { at, tx, client, spec });
        tx
    }

    /// Sizes the record log, once, for `transactions` invocations beyond
    /// those already planned: the log and its dense `TxId → slot` table are
    /// allocated at exactly that size, so a run that issues at most that
    /// many never regrows them (no doubling, no copy).  A driver calls it
    /// with the count its plan will issue.  It only reserves capacity: a
    /// run that issues more still works, and grows the log as an unplanned
    /// caller's does.
    pub fn reserve(&mut self, transactions: usize) {
        let planned = self.invocations.len() + transactions;
        self.records.reserve_exact(planned, self.next_tx as usize + transactions);
    }

    /// Schedules `spec` to be invoked immediately (at the current time).
    pub fn invoke_now(&mut self, client: ClientId, spec: TxSpec) -> TxId {
        self.invoke_at(self.now, client, spec)
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The in-flight messages, in send (id) order.
    pub fn pending(&self) -> impl Iterator<Item = &PendingMessage<P::Msg>> + '_ {
        self.pool.iter()
    }

    /// Access to a registered process (for assertions in tests/harnesses).
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.processes.get(id)
    }

    /// True if transaction `tx` has completed.
    pub fn is_complete(&self, tx: TxId) -> bool {
        self.records.is_complete(tx)
    }

    /// The record of `tx`, where the simulator keeps it: `None` if `tx` was
    /// not invoked or its record has left with [`Simulation::take_history`].
    /// A record is final at RESP — nothing is folded into it afterwards —
    /// so a committed one read here later equals the one the run's history
    /// ends with.
    pub fn record(&self, tx: TxId) -> Option<&TxRecord> {
        self.records.get(tx)
    }

    /// Drains the transactions committed since the previous drain, emptying
    /// the commit log — the incremental feed for streaming certification.
    /// `ids` is replaced by their ids in RESP order (`(responded_at,
    /// tx_id)`), each with a record [`Simulation::record`] returns; the
    /// result is a lower bound on the `invoked_at` of every transaction a
    /// later drain can return (the record log's `RecordLog::inv_floor`).
    pub fn drain_commit_ids(&mut self, ids: &mut Vec<TxId>) -> u64 {
        ids.clear();
        ids.extend(self.commits.drain());
        debug_assert!(
            ids.iter().all(|&tx| self.records.get(tx).is_some()),
            "a commit without a record"
        );
        self.records.inv_floor(self.now)
    }

    /// True if there is nothing left to do (nothing pending, nothing
    /// planned).
    pub fn is_quiescent(&self) -> bool {
        self.pool.is_empty() && self.invocations.is_empty()
    }

    /// Executes one step: dispatches the earliest due invocation if any,
    /// otherwise delivers the message chosen by the scheduler — O(log n)
    /// under the heap schedulers, O(live) under the random adversary.  An
    /// idle probe — nothing dispatchable — still counts a step.
    pub fn step(&mut self) -> StepOutcome {
        match self.try_dispatch() {
            Some(outcome) => outcome,
            None => {
                self.count_step();
                StepOutcome::Quiescent
            }
        }
    }

    /// Manual (adversarial) driving: delivers the first pending message (in
    /// send order) matching `pred`, bypassing the scheduler.  Returns the
    /// delivered message id, or `None` if nothing matched.
    ///
    /// The adversary controls *order*, not *time*: the clock advances to
    /// `max(now, deliver_at) + 1` exactly as for a scheduled delivery, so a
    /// latency-stamped message delivered adversarially can never produce
    /// actions (e.g. a RESP) timestamped before its own delivery time.
    /// Under schedulers that stamp the send time (zero latency, random) the
    /// clamp is `now + 1` — the Figs. 3–5 constructions drive those.
    pub fn deliver_where<F>(&mut self, pred: F) -> Option<MsgId>
    where
        F: Fn(&PendingMessage<P::Msg>) -> bool,
    {
        let slot = self.pool.find_first(pred)?;
        Some(self.dispatch_delivery(slot))
    }

    /// Manual driving: dispatches the next scheduled invocation for
    /// `client` without waiting for the simulator to reach it.  Returns the
    /// transaction id, or `None` if no invocation is queued for that
    /// client.
    ///
    /// The clock clamp matches the scheduled invocation rule: the INV is
    /// recorded at `max(now, at) + 1`, never before the invocation's
    /// planned time (forcing controls *order* relative to other queued
    /// work, it does not rewind time).
    pub fn force_invoke(&mut self, client: ClientId) -> Option<TxId> {
        // "Next" = smallest (at, tx) among that client's plans, matching the
        // dispatch order.  Heap iteration is unordered, so take the minimum
        // explicitly; this adversarial path may be O(n).
        let target = self
            .invocations
            .iter()
            .filter(|inv| inv.client == client)
            .max() // QueuedInvocation's Ord is reversed: max = earliest
            .cloned()?;
        self.invocations.retain(|inv| inv.tx != target.tx);
        self.advance_past(target.at);
        self.dispatch_invocation(target.tx, target.client, target.spec);
        Some(target.tx)
    }

    /// Runs until no work remains (or the step cap is hit).  Returns the
    /// number of steps executed.
    pub fn run_until_quiescent(&mut self) -> u64 {
        self.run(&[])
    }

    /// Runs until transaction `tx` completes (or the system goes quiescent).
    /// Returns `true` if the transaction completed — which under a fault
    /// schedule includes completing as `Aborted`.
    pub fn run_until_complete(&mut self, tx: TxId) -> bool {
        self.run(&[tx]);
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
    /// step is followed by the commit gate (`Simulation::watched_commit`),
    /// so the wait costs O(1) per step that commits nothing.  Quiescent
    /// with watched transactions still in flight, a fault schedule's
    /// orphans are retired as aborted before the final scan, so the caller
    /// is never livelocked waiting on a transaction whose server died.
    pub fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
        if watch.is_empty() {
            return None;
        }
        self.run(watch);
        watch.iter().copied().find(|&tx| self.is_complete(tx))
    }

    /// A copy of the [`History`] of the run so far, for a snapshot taken
    /// mid-run; the log keeps its records.  Rounds, C2C counts,
    /// versions-per-read and non-blocking flags are already in the
    /// transaction records, logged in INV order — the history's
    /// `(invoked_at, tx_id)` order — so this is one copy into a vector of
    /// exactly their number.  A run that is over hands its records on with
    /// [`Simulation::take_history`] instead.
    pub fn history(&self) -> History {
        let history = History { records: self.records.as_slice().to_vec() };
        debug_assert!(history.records.is_sorted_by_key(|r| (r.invoked_at, r.tx_id)));
        history
    }

    /// Moves the [`History`] of the run out — what [`Simulation::history`]
    /// would copy, in O(1) — and leaves the simulator with no records.
    /// The commit log is emptied with them: a commit whose record has left
    /// cannot be drained.  Afterwards `history()` and `drain_commits()` are
    /// empty, and a transaction still in flight keeps running but is no
    /// longer recorded (nor committed), so take the history once the run is
    /// over.
    pub fn take_history(&mut self) -> History {
        self.commits.drain().for_each(drop);
        History { records: self.records.take() }
    }

    /// [`Simulation::drain_commit_ids`] with a copy of each drained record:
    /// a [`CommitDrain`].  The drivers' checks read records in place; this
    /// copy stays only for the repo benchmark's traced pass, which still
    /// calls it (ROADMAP item 11).
    pub fn drain_commits(&mut self) -> CommitDrain {
        let mut ids = Vec::new();
        let inv_floor = self.drain_commit_ids(&mut ids);
        let records = ids.iter().filter_map(|&tx| self.records.get(tx)).cloned().collect();
        CommitDrain { records, inv_floor }
    }

    /// **The one dispatch rule**: the earliest planned invocation is the
    /// next event iff its planned time has been reached or no pending
    /// delivery is keyed at or before it; otherwise the scheduler picks a
    /// delivery.  The simulator therefore dispatches in ascending key
    /// order, so an invocation planned at quiescence is stamped `planned +
    /// 1`, and no invocation waits behind a delivery keyed after it.
    /// Returns the planned time of the invocation when it is the next
    /// event; `earliest_key` is the pool's [`MessagePool::peek_earliest`]
    /// key.
    fn due_invocation(&self, earliest_key: Option<u64>) -> Option<u64> {
        let at = self.invocations.peek()?.at;
        (at <= self.now || earliest_key.is_none_or(|key| at < key)).then_some(at)
    }

    fn count_step(&mut self) {
        self.steps += 1;
        assert!(
            self.steps <= self.max_steps,
            "simulation exceeded {} steps; likely livelock",
            self.max_steps
        );
    }

    /// The one clock rule: dispatching an event stamped `event_at`
    /// advances `now` to `max(now, event_at) + 1`.  Every `now` mutation
    /// in the workspace goes through here, so the invariant *an event is
    /// never dispatched at a clock earlier than its own timestamp* holds
    /// by construction.  A path that bypassed the clamp would trip the
    /// debug assertions downstream of it: the timestamp check in
    /// `Simulation::deliver` and `Simulation::audit_clock`.
    fn advance_past(&mut self, event_at: u64) {
        self.now = self.now.max(event_at) + 1;
    }

    /// Called at every external action (INV, send, recv, RESP).  The
    /// real-time precedence edges the checkers derive are only trustworthy
    /// if action times never regress — the clock clamp guarantees it; this
    /// assertion keeps it audited.
    fn audit_clock(&mut self) {
        debug_assert!(
            self.now >= self.last_action_at,
            "non-monotone action timestamp: {} after {}",
            self.now,
            self.last_action_at
        );
        self.last_action_at = self.now;
    }

    /// One dispatch decision: a due invocation
    /// (`Simulation::due_invocation`) wins over a delivery; deliveries are
    /// chosen by the scheduler, which may pick *any* live message.
    /// Returns `None` without counting a step if nothing is dispatchable.
    fn try_dispatch(&mut self) -> Option<StepOutcome> {
        // The one heap peek of this dispatch: it decides the due rule, and
        // the heap scheduler's pick pops the entry it found.
        let earliest = self.pool.peek_earliest();
        if self.due_invocation(earliest.map(|e| e.deliver_at)).is_some() {
            let inv = self.invocations.pop().expect("peeked invocation");
            self.count_step();
            self.advance_past(inv.at);
            self.dispatch_invocation(inv.tx, inv.client, inv.spec);
            return Some(StepOutcome::Invoked(inv.tx));
        }
        let slot = self.scheduler.next(&mut self.pool, earliest, self.now)?;
        self.count_step();
        Some(StepOutcome::Delivered(self.dispatch_delivery(slot)))
    }

    /// Dispatches the message a pick left in `slot`: the clock clamp, the
    /// crash-window gate (only under a fault schedule), the handler.
    /// Returns its id.
    fn dispatch_delivery(&mut self, slot: Slot) -> MsgId {
        let msg = self.pool.get(slot);
        let (id, deliver_at) = (msg.id, msg.deliver_at);
        self.advance_past(deliver_at);
        if self.faults.is_none() || self.crash_gate(slot) {
            self.deliver(slot);
        }
        id
    }

    /// The commit gate of every completion wait: whether a member of
    /// `watch` is among the commits logged since commit number `*seen`,
    /// which is advanced to the current count.  A transaction completes
    /// only when its RESP is logged, so a wait loop that scanned `watch`
    /// once on entry needs nothing else after a step — O(1) when the step
    /// committed nothing, and a slice compare (no `records` probe) against
    /// the new ids when it did.
    fn watched_commit(&self, seen: &mut u64, watch: &[TxId]) -> bool {
        let count = self.commits.count();
        if count == *seen {
            return false;
        }
        let from = std::mem::replace(seen, count);
        let done = self.commits.since(from).any(|committed| watch.contains(&committed));
        debug_assert!(
            !done || watch.iter().any(|&tx| self.is_complete(tx)),
            "logged commit without a record"
        );
        done
    }

    /// **The one wait loop** behind every `run_until_*`: dispatches by the
    /// dispatch rule until a member of `watch` commits (never, for an empty
    /// `watch`) or nothing is left to dispatch, and only in the latter case
    /// retires what a fault schedule orphaned (`Simulation::abort_orphans`).
    /// A `watch` with an already-complete member returns at once.  Returns
    /// the steps executed.
    fn run(&mut self, watch: &[TxId]) -> u64 {
        let start = self.steps;
        if watch.iter().any(|&tx| self.is_complete(tx)) {
            return 0;
        }
        let mut seen = self.commits.count();
        while self.try_dispatch().is_some() {
            if self.watched_commit(&mut seen, watch) {
                return self.steps - start;
            }
        }
        self.abort_orphans();
        self.steps - start
    }

    fn dispatch_invocation(&mut self, tx: TxId, client: ClientId, spec: TxSpec) {
        let pid = ProcessId::Client(client);
        self.audit_clock();
        // Everything planned so far will be logged.  `Vec::reserve` grows
        // to at least double, so a log grown here doubles its way up; a
        // driver sizes it once, from its plan (`Simulation::reserve`), and
        // this is then a no-op.
        self.records.reserve(1 + self.invocations.len());
        self.records.invoke(TxRecord::invoked(tx, client, spec.clone(), self.now));
        if O::ENABLED {
            self.sink.emit(ObsEvent::InvocationDispatched { at: self.now, tx, client });
        }
        let process = self
            .processes
            .get_mut(pid)
            .unwrap_or_else(|| panic!("invocation for unknown process {pid}"));
        process.on_invoke(tx, spec, &mut self.effects);
        self.apply_effects(pid, None);
    }

    /// Delivers the message in `slot`: its header is read where it lies,
    /// and the payload moves out of the pool once, into the handler.
    fn deliver(&mut self, slot: Slot) {
        let msg = self.pool.get(slot);
        // Delivery must happen strictly after the message's own timestamp.
        debug_assert!(
            msg.deliver_at < self.now && msg.sent_at < self.now,
            "message {} delivered before its own timestamp (sent_at {}, deliver_at {}, now {})",
            msg.id,
            msg.sent_at,
            msg.deliver_at,
            self.now
        );
        let (id, src, dst, causal, info) = (msg.id, msg.src, msg.dst, msg.causal, msg.msg.info());
        self.audit_clock();
        self.note_read_response(src, dst, causal, &info);
        let payload = self.pool.take(slot).msg;
        if O::ENABLED {
            self.sink.emit(ObsEvent::MessageDelivered {
                at: self.now,
                msg: id.0,
                kind: info.kind,
                tx: info.tx,
                src,
                dst,
                queue_depth: self.pool.len() as u32,
            });
        }
        let process = self
            .processes
            .get_mut(dst)
            .unwrap_or_else(|| panic!("message to unknown process {dst}"));
        process.on_message(src, payload, &mut self.effects);
        self.apply_effects(dst, Some((info, causal)));
    }

    /// Folds a read response, sent by `src` to `dst` and stamped `causal`,
    /// into the instrumentation of its READ, before the handler runs: one
    /// [`ReadResult`] per response carrying an object that a server sent
    /// the **invoking client** — and only until the RESP, at which the
    /// record is final (a duplicate or a slow replica's answer delivered
    /// later is a straggler, not instrumentation).
    fn note_read_response(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        causal: Causal,
        info: &MsgInfo,
    ) {
        if info.kind != MsgKind::ReadResponse {
            return;
        }
        let (Some(tx), Some(object), Some(server), ProcessId::Client(client)) =
            (info.tx, info.object, src.as_server(), dst)
        else {
            return; // e.g. a metadata response (get-tag-arr) names no object
        };
        let Some(rec) = self.records.get_mut(tx) else { return };
        let TxSpec::Read(read) = &rec.spec else { return };
        if rec.client == client && rec.responded_at.is_none() {
            // One allocation, at the first response: room for one read per
            // object, all that a READ reading each object once folds in.
            if rec.reads.capacity() == 0 {
                rec.reads.reserve_exact(read.len());
            }
            rec.reads.push(ReadResult {
                object,
                server,
                versions_in_response: info.versions.max(1),
                nonblocking: causal.direct,
            });
        }
    }

    /// Applies what the handler just run at `at` left in the simulator's
    /// [`Effects`] buffer: its sends in emission order, then its RESPs.
    /// The buffer is drained where it lies — the loop borrows it beside the
    /// pool, the scheduler and the records, each a field of its own — and
    /// keeps its capacity for the next handler call.  Each send is written
    /// once, into its pool slot, with everything known first: its stamp,
    /// its id and its delivery time (the scheduler's draw, then the fault
    /// verdict's say).  The clock does not move here, so the input action
    /// the handler ran for has audited every action below.
    fn apply_effects(&mut self, at: ProcessId, handled: Option<(MsgInfo, Causal)>) {
        let now = self.now;
        let Simulation { effects, pool, scheduler, records, commits, ids, sink, faults, .. } = self;
        // `ordinal` numbers the sends of this handler execution, the
        // fault-engine duplicates and the dropped sends included: with
        // `(at, to, now)`, a send's coordinates.
        let mut ordinal = 0;
        for (to, payload) in effects.drain_sends() {
            let info = payload.info();
            // `send_verdict` is a pure function of `(schedule, src, dst,
            // sent_at, ordinal)`, so verdicts are independent of decision
            // order.
            let verdict = match faults {
                Some(faults) => {
                    note_partitions(faults, sink, now);
                    faults.schedule.send_verdict(at, to, now, ordinal)
                }
                None => SendVerdict::default(),
            };
            let id = ids.issue(at, now);
            let causal = stamp(records, at, &info, handled);
            let deliver_at = verdict.delay(scheduler.on_send(at, to, now, ordinal));
            ordinal += 1;
            // A dropped send is never inserted: the drop is an event of the
            // run.
            let slot = (!verdict.dropped).then(|| {
                pool.insert(PendingMessage {
                    id,
                    src: at,
                    dst: to,
                    msg: payload,
                    sent_at: now,
                    causal,
                    deliver_at,
                })
            });
            if O::ENABLED {
                sink.emit(sent(now, id, &info, at, to, pool.len()));
                if verdict.dropped {
                    sink.emit(ObsEvent::MessageDropped { at: now, msg: id.0, src: at, dst: to });
                }
            }
            let Some(slot) = slot.filter(|_| verdict.duplicate) else { continue };
            // The duplicate is a first-class send: its own id, its own
            // scheduler draw, its own stamp from the same inputs (so a
            // duplicated C2C send counts twice), and the one clone of the
            // payload, taken from the original's slot.  It is not
            // re-evaluated against the fault schedule (no duplicate storms
            // of duplicates).
            let copy = pool.get(slot).msg.clone();
            let dup = ids.issue(at, now);
            let causal = stamp(records, at, &info, handled);
            let deliver_at = scheduler.on_send(at, to, now, ordinal);
            ordinal += 1;
            pool.insert(PendingMessage {
                id: dup,
                src: at,
                dst: to,
                msg: copy,
                sent_at: now,
                causal,
                deliver_at,
            });
            if O::ENABLED {
                sink.emit(sent(now, dup, &info, at, to, pool.len()));
                sink.emit(ObsEvent::MessageDuplicated {
                    at: now,
                    original: id.0,
                    duplicate: dup.0,
                    src: at,
                    dst: to,
                });
            }
        }
        // A RESP with no record — its transaction was in flight when the
        // history was taken — is not a commit of this log.
        for (tx, outcome) in effects.drain_responses() {
            let Some(rec) = records.respond(tx, now, outcome) else { continue };
            if O::ENABLED {
                sink.emit(ObsEvent::TxCommitted {
                    at: now,
                    tx,
                    client: rec.client,
                    invoked_at: rec.invoked_at,
                });
            }
            commits.live.push_back(tx);
        }
    }

    /// Delivery-side fault gate for the message in `slot`, called after
    /// the clock clamp and before the handler runs, only under a fault
    /// schedule.  Applies any crash recoveries for the destination that
    /// have elapsed by `now` (the process is rebuilt **from fresh state**
    /// by the restart factory), then intercepts the delivery if the attempt
    /// lands inside an active crash window: `DropInFlight` takes the
    /// message out and loses it, `QueueInFlight` re-queues it where it lies
    /// to deliver no earlier than the recovery tick.  Returns whether the
    /// delivery proceeds.
    fn crash_gate(&mut self, slot: Slot) -> bool {
        let Simulation { faults, processes, pool, sink, now, .. } = self;
        let (Some(faults), now) = (faults.as_mut(), *now) else { return true };
        let dst = pool.get(slot).dst;
        // Recoveries first: every window of `dst` that fully elapsed must
        // have restarted the process before this delivery observes it —
        // even if no delivery was attempted inside the window itself (the
        // state loss happened regardless).
        for i in faults.schedule.elapsed_crashes(dst, now) {
            if faults.crash_recovered[i] {
                continue;
            }
            let crash = faults.schedule.crashes[i];
            if !faults.crash_announced[i] {
                faults.crash_announced[i] = true;
                if O::ENABLED {
                    sink.emit(ObsEvent::ServerCrashed { at: now, server: crash.server });
                }
            }
            faults.crash_recovered[i] = true;
            let restart = faults
                .restart
                .as_mut()
                .expect("crash schedules carry a restart factory (FaultState::new)");
            let fresh = restart(dst);
            assert_eq!(fresh.id(), dst, "restart factory rebuilt the wrong process");
            processes.insert(dst, fresh);
            if O::ENABLED {
                sink.emit(ObsEvent::ServerRecovered { at: now, server: crash.server });
            }
        }
        let Some((i, crash)) = faults.schedule.crash_window(dst, now) else { return true };
        if !faults.crash_announced[i] {
            faults.crash_announced[i] = true;
            if O::ENABLED {
                sink.emit(ObsEvent::ServerCrashed { at: now, server: crash.server });
            }
        }
        match crash.policy {
            CrashPolicy::DropInFlight => {
                let lost = pool.take(slot);
                if O::ENABLED {
                    sink.emit(ObsEvent::MessageDropped {
                        at: now,
                        msg: lost.id.0,
                        src: lost.src,
                        dst: lost.dst,
                    });
                }
            }
            // Held for the restarted process: re-queued with its delivery
            // pushed to the recovery tick (the clock already advanced past
            // the attempt, so the next pick lands at or past `recover_at`
            // and takes the recovery path above).
            CrashPolicy::QueueInFlight => pool.requeue(slot, crash.recover_at),
        }
        false
    }

    /// Fault-engine retirement rule: once the simulation is quiescent, any
    /// transaction still in flight can never complete — its server crashed
    /// with the request in flight, or a partition swallowed a message of
    /// its protocol exchange.  Retires each as [`snow_core::TxOutcome::Aborted`]
    /// (recorded as a Respond, so it flows into the commit log and the
    /// streaming checker's certification frontier advances instead of
    /// wedging).  A no-op without a fault schedule: on a fault-free run an
    /// in-flight transaction at quiescence is a protocol bug, and the
    /// existing completeness assertions should keep catching it.
    fn abort_orphans(&mut self) {
        if self.faults.is_none() || !self.is_quiescent() {
            return;
        }
        for (tx, client) in self.records.abort_open(self.now) {
            self.audit_clock();
            self.commits.live.push_back(tx);
            // Let the client automaton drop its in-flight state for the
            // orphan, so the next invocation finds it idle.
            if let Some(p) = self.processes.get_mut(ProcessId::Client(client)) {
                p.on_abort(tx);
            }
        }
    }
}

/// **The one definition of the causal stamp** (see [`Causal`]) of a send by
/// `at`, classified `info`, made while handling `handled` (`None` in an INV
/// handler) — folded, at the same site, into the record it describes: a
/// C2C send into its transaction's C2C count, whoever sends it; any other
/// send by the invoker into its round count.
#[inline]
fn stamp(
    records: &mut RecordLog,
    at: ProcessId,
    info: &MsgInfo,
    handled: Option<(MsgInfo, Causal)>,
) -> Causal {
    let Some(tx) = info.tx else { return Causal::ROOT };
    let rec = records.get_mut(tx);
    // A server never invokes.
    let by_invoker = matches!((at, &rec), (ProcessId::Client(c), Some(rec)) if rec.client == c);
    let causal = match handled {
        Some((parent, stamp)) if parent.tx == Some(tx) => Causal {
            round: stamp.round + u32::from(by_invoker),
            direct: parent.kind == MsgKind::ReadRequest,
        },
        _ => Causal::ROOT,
    };
    if let Some(rec) = rec {
        if info.kind == MsgKind::ClientToClient {
            rec.c2c_messages += 1;
        } else if by_invoker {
            rec.rounds = rec.rounds.max(causal.round);
        }
    }
    causal
}

/// The `MessageSent` event of send `id`, classified `info`, by `src` to
/// `dst` at `at`, with `queue_depth` messages in flight after it.
fn sent(
    at: u64,
    id: MsgId,
    info: &MsgInfo,
    src: ProcessId,
    dst: ProcessId,
    queue_depth: usize,
) -> ObsEvent {
    ObsEvent::MessageSent {
        at,
        msg: id.0,
        kind: info.kind,
        tx: info.tx,
        src,
        dst,
        queue_depth: queue_depth as u32,
    }
}

/// Lazily announces partition starts and heals: each transition is emitted
/// once, on the first send decision whose clock observes it.  Pure
/// bookkeeping — the actual cut is decided per message by
/// [`FaultSchedule::send_verdict`].
fn note_partitions<P, O: TraceSink>(faults: &mut FaultState<P>, sink: &mut O, now: u64) {
    for (i, p) in faults.schedule.partitions.iter().enumerate() {
        if !faults.partition_started[i] && now >= p.from && now < p.until {
            faults.partition_started[i] = true;
            if O::ENABLED {
                sink.emit(ObsEvent::PartitionStarted { at: now, partition: i as u32 });
            }
        }
        if faults.partition_started[i] && !faults.partition_healed[i] && now >= p.until {
            faults.partition_healed[i] = true;
            if O::ENABLED {
                sink.emit(ObsEvent::PartitionHealed { at: now, partition: i as u32 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SimMessage;
    use crate::scheduler::{LatencyScheduler, RandomScheduler};
    use snow_obs::RecordingSink;
    use snow_core::{Key, ObjectId, ObjectRead, ReadOutcome, ServerId, TxOutcome, Value};

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
        let mut sim = toy_sim(LatencyScheduler::fifo());
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
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        // Dispatch the invocation only.
        assert_eq!(sim.step(), StepOutcome::Invoked(tx));
        assert_eq!(sim.pending().count(), 2);
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
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let tx = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(tx));
        assert_eq!(sim.force_invoke(ClientId(0)), None);
        sim.run_until_quiescent();
        assert!(sim.is_complete(tx));
    }

    #[test]
    fn force_invoke_takes_the_earliest_plan_for_the_client() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let late = sim.invoke_at(500, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let early = sim.invoke_at(100, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(early));
        assert_eq!(sim.force_invoke(ClientId(0)), Some(late));
    }

    #[test]
    fn run_until_complete_stops_at_target() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let tx1 = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let tx2 = sim.invoke_at(50, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert!(sim.run_until_complete(tx1));
        assert!(sim.is_complete(tx1));
        assert!(sim.run_until_complete(tx2));
    }

    #[test]
    fn run_until_any_complete_returns_the_first_finisher() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
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
    /// delivery is the next event: stamped 11, not behind the request keyed
    /// 51.
    #[test]
    fn an_invocation_keyed_before_every_pending_delivery_dispatches_first() {
        use crate::topology::Topology;

        fn check<S: Scheduler<ToyMsg>>(scheduler: S) {
            let mut sim = two_client_sim(scheduler);
            let first = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
            let second = sim.invoke_at(10, ClientId(1), TxSpec::read(vec![ObjectId(1)]));
            assert_eq!(sim.step(), StepOutcome::Invoked(first));
            assert!(sim.pending().all(|p| p.deliver_at >= 51), "the request is in flight");
            assert_eq!(sim.step(), StepOutcome::Invoked(second));
            assert_eq!(sim.history().get(second).unwrap().invoked_at, 11);
        }
        check(LatencyScheduler::new(1, 50, 50));
        let topology = Topology::single_dc(&snow_core::SystemConfig::mwmr(2, 1, 1));
        check(LatencyScheduler::over(std::sync::Arc::new(topology), 1));
    }

    #[test]
    fn run_until_any_complete_hands_back_a_finished_member_without_stepping() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let done = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        let later = sim.invoke_at(1_000, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        assert!(sim.run_until_complete(done));
        let (now, pending) = (sim.now(), sim.pending().count());
        // Already complete on entry: returned even from the back of the
        // list, and the clock and the network stay where they were.
        assert_eq!(sim.run_until_any_complete(&[later, done]), Some(done));
        assert_eq!((sim.now(), sim.pending().count()), (now, pending));
        assert!(!sim.is_complete(later));
    }

    #[test]
    fn run_until_any_complete_steps_past_commits_nobody_watches() {
        let mut sim = two_client_sim(LatencyScheduler::fifo());
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
        let mut sim = two_client_sim(LatencyScheduler::fifo()).with_faults(drop_everything, None);
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
        let mut sim = toy_sim(LatencyScheduler::fifo()).with_faults(duplicate_responses, None);
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert_eq!(sim.run_until_quiescent(), 7, "INV, 2 requests, 4 responses");
        let history = sim.history();
        let servers: Vec<ServerId> = history.get(tx).unwrap().reads.iter().map(|r| r.server).collect();
        assert_eq!(servers, [ServerId(0), ServerId(0)]);
        assert_eq!(sim.drain_commits().records[0].reads.len(), 2, "drained ≡ final");
    }

    /// The clone guard's payload: one leg of a READ's round trip to the
    /// server of `object`.  Its `Clone` counts into [`PING_CLONES`]; no
    /// other test sends one, so nothing else moves the count.
    #[derive(Debug)]
    struct Ping {
        tx: TxId,
        object: ObjectId,
        back: bool,
    }

    static PING_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    impl Clone for Ping {
        fn clone(&self) -> Self {
            PING_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ping { ..*self }
        }
    }

    impl SimMessage for Ping {
        fn info(&self) -> MsgInfo {
            match self.back {
                false => MsgInfo::read_request(self.tx, Some(self.object)),
                true => MsgInfo::read_response(self.tx, Some(self.object), 1),
            }
        }
    }

    /// A READ as one round trip per object: a server answers every `Ping`
    /// it is sent, and the client responds once each object has answered
    /// (a duplicate answer, or one for an earlier READ, is ignored).
    struct Pinger {
        id: ProcessId,
        /// The READ in flight and the answers it still waits for.
        waiting: Option<(TxId, usize)>,
    }

    impl Process for Pinger {
        type Msg = Ping;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_invoke(&mut self, tx: TxId, spec: TxSpec, effects: &mut Effects<Ping>) {
            self.waiting = Some((tx, spec.objects().len()));
            for object in spec.objects() {
                let ping = Ping { tx, object, back: false };
                effects.send(ProcessId::Server(ServerId(object.0)), ping);
            }
        }

        fn on_message(&mut self, from: ProcessId, ping: Ping, effects: &mut Effects<Ping>) {
            if !ping.back {
                return effects.send(from, Ping { back: true, ..ping });
            }
            let Some((tx, left)) = &mut self.waiting else { return };
            if *tx == ping.tx {
                *left -= 1;
                if *left == 0 {
                    let outcome = ReadOutcome { reads: Vec::new(), tag: None };
                    effects.respond(ping.tx, TxOutcome::Read(outcome));
                    self.waiting = None;
                }
            }
        }
    }

    /// The clone guard of the message path: a send is moved from the
    /// handler's buffer into its pool slot and from there into the handler
    /// that receives it, never cloned — the one clone is the fault engine's
    /// duplicate, made once per `MessageDuplicated` event.
    #[test]
    fn the_message_path_clones_only_what_the_fault_engine_duplicates() {
        use crate::fault::{EndpointSel, FaultAction, FaultRegion, FaultSchedule};

        /// 40 two-object READs by two clients: the clones counted and the
        /// run's events.
        fn run(faults: Option<FaultSchedule>) -> (u64, Vec<ShardEvent>) {
            let mut sim = Simulation::new(LatencyScheduler::new(7, 1, 30));
            if let Some(schedule) = faults {
                sim = sim.with_faults(schedule, None);
            }
            let mut sim = sim.with_sink(RecordingSink::new());
            for id in [c(0), c(1), s(0), s(1)] {
                sim.add_process(Pinger { id, waiting: None });
            }
            for i in 0..40u64 {
                let spec = TxSpec::read(vec![ObjectId(0), ObjectId(1)]);
                sim.invoke_at(i * 50, ClientId(i as u32 % 2), spec);
            }
            let before = PING_CLONES.load(std::sync::atomic::Ordering::Relaxed);
            sim.run_until_quiescent();
            let clones = PING_CLONES.load(std::sync::atomic::Ordering::Relaxed) - before;
            assert!(sim.take_history().records.iter().all(|r| r.is_complete()));
            (clones, sim.drain_obs_events())
        }
        let count = |events: &[ShardEvent], kind: fn(&ObsEvent) -> bool| {
            events.iter().filter(|e| kind(&e.event)).count() as u64
        };

        let (clones, events) = run(None);
        let delivered = count(&events, |e| matches!(e, ObsEvent::MessageDelivered { .. }));
        assert_eq!(delivered, 160, "two requests and two answers per READ");
        assert_eq!(clones, 0, "a fault-free run cloned a message");

        let duplicate_everything = FaultSchedule::new(3).with_region(FaultRegion::always(
            FaultAction::Duplicate,
            EndpointSel::Any,
            EndpointSel::Any,
            0,
            u64::MAX,
        ));
        let (clones, events) = run(Some(duplicate_everything));
        let duplicated = count(&events, |e| matches!(e, ObsEvent::MessageDuplicated { .. }));
        assert!(duplicated >= 160, "every send is duplicated ({duplicated})");
        assert_eq!(clones, duplicated, "one clone per duplicate, and no other");
    }

    #[test]
    fn history_sorted_by_invocation_time() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
        let _t2 = sim.invoke_at(10, ClientId(0), TxSpec::read(vec![ObjectId(1)]));
        let t1 = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        sim.run_until_quiescent();
        let h = sim.history();
        assert_eq!(h.records[0].tx_id, t1);
    }

    #[test]
    fn bulk_invocation_scheduling_dispatches_in_time_order() {
        let mut sim = toy_sim(LatencyScheduler::fifo());
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
        let mut sim = toy_sim(LatencyScheduler::fifo());
        sim.add_process(ToyNode::Server { id: ServerId(0) });
    }

    /// Regression for the adversarial-delivery clock-skew bug: a
    /// `deliver_where` that advanced `now += 1` without clamping to the
    /// delivered message's `deliver_at` let a latency-stamped message
    /// delivered adversarially enable a RESP timestamped *before* the
    /// delivery that caused it — silently widening/inverting the real-time
    /// intervals the checkers turn into precedence edges.  The clock clamps
    /// exactly like a scheduled delivery's.
    #[test]
    fn adversarial_delivery_cannot_rewind_time_before_deliver_at() {
        // Fixed 50-tick latency: the request sent at the INV (time 1) is
        // stamped deliver_at = 51.
        let mut sim = toy_sim(LatencyScheduler::new(1, 50, 50));
        let tx = sim.invoke_at(0, ClientId(0), TxSpec::read(vec![ObjectId(0)]));
        assert_eq!(sim.step(), StepOutcome::Invoked(tx));
        let request_deliver_at = sim.pending().next().unwrap().deliver_at;
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
        let mut sim = toy_sim(LatencyScheduler::fifo());
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

    /// Draining commits incrementally and reading each record in place
    /// yields exactly the completed records of the final history, in RESP
    /// order, with identical enrichment — and the drain's `inv_floor` never
    /// runs ahead of a record a later drain returns.
    #[test]
    fn drain_commits_streams_the_history_in_resp_order() {
        // The toy client supports one outstanding transaction, so space the
        // invocations; the drain contract concerns completed records only.
        let mut sim = toy_sim(RandomScheduler::new(7));
        for i in 0..40u64 {
            sim.invoke_at(i * 40, ClientId(0), TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        }
        let (mut drained, mut ids) = (Vec::new(), Vec::new());
        let mut floor = 0u64;
        while !sim.is_quiescent() {
            sim.step();
            let inv_floor = sim.drain_commit_ids(&mut ids);
            for &tx in &ids {
                let rec = sim.record(tx).expect("a drained commit is read in place");
                assert!(
                    rec.invoked_at >= floor,
                    "record invoked at {} below the promised floor {floor}",
                    rec.invoked_at
                );
                drained.push(rec.clone());
            }
            assert!(inv_floor >= floor, "inv_floor regressed");
            floor = inv_floor;
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

    /// The take hands over exactly the history a copy would have made, and
    /// leaves nothing behind: no records to copy, no commits to drain.
    #[test]
    fn take_history_moves_out_what_history_copies() {
        let mut sim = two_client_sim(LatencyScheduler::new(3, 1, 20));
        for i in 0..10u64 {
            let spec = TxSpec::read(vec![ObjectId(0), ObjectId(1)]);
            sim.invoke_at(i * 40, ClientId(i as u32 % 2), spec);
        }
        sim.run_until_quiescent();
        let copied = sim.history();
        assert_eq!(copied.len(), 10);
        let taken = sim.take_history();
        assert_eq!(format!("{taken:?}"), format!("{copied:?}"));
        assert!(sim.history().records.is_empty(), "the log was moved, not copied");
        assert!(sim.drain_commits().records.is_empty(), "the commit log went with it");
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
    /// that id (a scheduler that peeked without popping left one) resurfaced
    /// the message under its old key: it was re-picked at once and the
    /// clock clamp leapt to `recover_at`, past every message keyed in
    /// between.
    #[test]
    fn queued_in_flight_messages_wait_their_turn_under_the_topology_scheduler() {
        use crate::fault::{Crash, CrashPolicy, FaultSchedule};
        use crate::topology::{Topology, TICK};
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
        let mut sim = Simulation::new(LatencyScheduler::over(topology, 11))
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
                sim.pending().map(|p| (p.id, (p.deliver_at, p.dst))).collect();
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
                    assert_eq!(requeued.deliver_at, recover_at);
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

    /// One hop of a scripted route: the next process, and how the message
    /// sent to it is classified.
    type Hop = (ProcessId, MsgInfo);

    /// A scripted toy protocol: a message carries the rest of its route,
    /// every handler forwards it to the next hop, and the handler that
    /// finds the route empty responds.
    #[derive(Debug, Clone)]
    struct Routed {
        tx: TxId,
        info: MsgInfo,
        rest: VecDeque<Hop>,
    }

    impl SimMessage for Routed {
        fn info(&self) -> MsgInfo {
            self.info
        }
    }

    struct Router {
        id: ProcessId,
        /// The route of each invocation, in invocation order.
        scripts: VecDeque<Vec<Hop>>,
    }

    fn forward(tx: TxId, mut route: VecDeque<Hop>, effects: &mut Effects<Routed>) {
        match route.pop_front() {
            Some((to, info)) => {
                // Scripts attribute to the placeholder `T`.
                let info = MsgInfo { tx: info.tx.and(Some(tx)), ..info };
                effects.send(to, Routed { tx, info, rest: route })
            }
            None => {
                effects.respond(tx, TxOutcome::Read(ReadOutcome { reads: Vec::new(), tag: None }))
            }
        }
    }

    impl Process for Router {
        type Msg = Routed;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_invoke(&mut self, tx: TxId, _spec: TxSpec, effects: &mut Effects<Routed>) {
            let route = self.scripts.pop_front().expect("one script per invocation");
            forward(tx, route.into(), effects);
        }

        fn on_message(&mut self, _from: ProcessId, msg: Routed, effects: &mut Effects<Routed>) {
            forward(msg.tx, msg.rest, effects);
        }
    }

    /// The transaction scripts are written against; a message is
    /// re-attributed to the transaction it actually travels for.
    const T: TxId = TxId(0);

    fn c(i: u32) -> ProcessId {
        ProcessId::Client(ClientId(i))
    }
    fn s(i: u32) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }
    fn req(to: ProcessId, object: u32) -> Hop {
        (to, MsgInfo::read_request(T, Some(ObjectId(object))))
    }
    fn resp(to: ProcessId, object: u32, versions: usize) -> Hop {
        (to, MsgInfo::read_response(T, Some(ObjectId(object)), versions))
    }
    fn c2c(to: ProcessId) -> Hop {
        (to, MsgInfo::client_to_client(Some(T)))
    }

    /// Two clients and four servers; client 0 holds the scripts.
    fn routers(routes: Vec<Vec<Hop>>) -> impl Iterator<Item = Router> {
        let invoker = Router { id: c(0), scripts: routes.into() };
        let others = [c(1), s(0), s(1), s(2), s(3)];
        std::iter::once(invoker)
            .chain(others.into_iter().map(|id| Router { id, scripts: VecDeque::new() }))
    }

    fn scheduler() -> LatencyScheduler {
        LatencyScheduler::new(0, 5, 5)
    }

    fn read_spec() -> TxSpec {
        TxSpec::read(vec![ObjectId(0)])
    }

    /// The records of one READ by client 0 per route, one after the other.
    fn run(routes: Vec<Vec<Hop>>) -> Vec<TxRecord> {
        let mut sim = Simulation::new(scheduler());
        let count = routes.len() as u64;
        routers(routes).for_each(|p| sim.add_process(p));
        for i in 0..count {
            sim.invoke_at(i * 1_000, ClientId(0), read_spec());
        }
        sim.run_until_quiescent();
        sim.history().records
    }

    fn read(object: u32, server: u32, versions: usize, nonblocking: bool) -> ReadResult {
        ReadResult {
            object: ObjectId(object),
            server: ServerId(server),
            versions_in_response: versions,
            nonblocking,
        }
    }

    #[test]
    fn round_counting_follows_causality() {
        // A send by the invoker belongs to round 1 + the responses of the
        // chain it had handled.  Three transactions of one client, of 1, 2
        // and 3 round trips: each record counts its own.
        let chain = |rounds: u32| -> Vec<Hop> {
            (1..=rounds).flat_map(|i| [req(s(i), i), resp(c(0), i, 1)]).collect()
        };
        let records = run(vec![chain(1), chain(2), chain(3)]);
        for (rec, rounds) in records.iter().zip(1u32..) {
            assert!(rec.is_complete());
            assert_eq!(rec.rounds, rounds);
            assert_eq!(rec.reads.len(), rounds as usize);
            assert!(rec.all_reads_nonblocking());
        }
    }

    /// A chain is one transaction's own contiguous ancestry: a hop through
    /// an unattributed message starts it over, and the read response sent
    /// from that message's handler — not from the request's — is blocking.
    #[test]
    fn a_chain_restarted_by_a_control_message_counts_from_one() {
        let rec = &run(vec![vec![
            req(s(0), 0),
            resp(c(0), 0, 1),
            req(s(1), 1), // round 2; s1 parks it …
            (s(2), MsgInfo::control()),
            resp(c(0), 2, 1), // … and s2 answers, from the control handler
            req(s(3), 3), // 1 + the one response of the restarted chain
            resp(c(0), 3, 1),
        ]])[0];
        assert_eq!(rec.rounds, 2, "three requests, but the chain restarted");
        assert_eq!(rec.reads, [read(0, 0, 1, true), read(2, 2, 1, false), read(3, 3, 1, true)]);
    }

    #[test]
    fn c2c_sends_are_counted_and_never_add_a_round() {
        let route = vec![req(s(2), 0), resp(c(0), 0, 1), c2c(c(1)), c2c(c(0))];
        // The relay's send counts for the transaction it travels for,
        // though the relay did not invoke it.
        let rec = &run(vec![route])[0];
        assert_eq!((rec.rounds, rec.c2c_messages), (1, 2));
    }

    #[test]
    fn read_results_accumulate_at_the_invoker_in_receive_order() {
        let rec = &run(vec![vec![
            req(s(0), 0),
            resp(c(1), 9, 4), // to a client that did not invoke T
            req(s(3), 3),
            resp(c(0), 3, 0), // a response carries at least one version
            req(s(1), 1),
            (c(0), MsgInfo::read_response(T, None, 2)), // metadata: no object
            req(s(2), 2),
            resp(c(0), 2, 5),
        ]])[0];
        assert_eq!(rec.reads, [read(3, 3, 1, true), read(2, 2, 5, true)]);
        assert_eq!(rec.rounds, 3);
    }

    /// The derivation needs nothing but the messages: a chain through
    /// two servers and a C2C relay folds into one record.
    #[test]
    fn a_relayed_chain_derives_its_whole_record() {
        // invoke → request → response → C2C relay and back → second
        // request → response.
        let route =
            vec![req(s(2), 0), resp(c(0), 0, 1), c2c(c(1)), c2c(c(0)), req(s(3), 1), resp(c(0), 1, 2)];
        let rec = &run(vec![route])[0];
        assert!(rec.is_complete());
        // The C2C messages the invoker sends are no round of its own, but
        // the one it handles is a response of the chain like any other.
        assert_eq!((rec.rounds, rec.c2c_messages), (3, 2));
        assert_eq!(rec.reads, [read(0, 2, 1, true), read(1, 3, 2, true)]);
    }

    #[test]
    fn commit_log_iterates_and_retires_in_resp_order() {
        let mut log = CommitLog::default();
        log.live.extend((0..20).map(TxId));
        assert_eq!((log.count(), log.retired), (20, 0));
        assert_eq!(log.since(0).collect::<Vec<_>>(), (0..20).map(TxId).collect::<Vec<_>>());
        // A cursor resumes mid-log.
        assert_eq!(log.since(17).collect::<Vec<_>>(), [TxId(17), TxId(18), TxId(19)]);
        // A drain takes every live entry: its storage goes, the numbering
        // stays.
        assert_eq!(log.drain().collect::<Vec<_>>(), (0..20).map(TxId).collect::<Vec<_>>());
        assert_eq!((log.count(), log.retired), (20, 20));
        assert_eq!(log.since(20).count(), 0);
        // Commits logged after a drain number on from it.
        log.live.push_back(TxId(20));
        assert_eq!(log.since(20).collect::<Vec<_>>(), [TxId(20)]);
        assert_eq!(log.drain().collect::<Vec<_>>(), [TxId(20)]);
        assert_eq!((log.count(), log.retired), (21, 21));
    }

    /// The completion wait's commit gate and the drain read one commit
    /// log: waiting on each transaction in turn and draining after every
    /// wait hands back each completed record exactly once, in RESP order.
    #[test]
    fn completion_waits_and_drains_share_one_commit_log() {
        let mut sim = two_client_sim(LatencyScheduler::new(5, 1, 30));
        let txs: Vec<TxId> = (0..20u64)
            .map(|i| {
                let spec = TxSpec::read(vec![ObjectId(0), ObjectId(1)]);
                sim.invoke_at(i * 40, ClientId(i as u32 % 2), spec)
            })
            .collect();
        let mut drained = Vec::new();
        for &tx in &txs {
            assert_eq!(sim.run_until_any_complete(&[tx]), Some(tx));
            drained.extend(sim.drain_commits().records);
        }
        assert!(sim.is_quiescent());
        assert!(sim.drain_commits().records.is_empty(), "every commit was drained once");
        let mut expected = sim.history().records;
        expected.sort_by_key(|r| (r.responded_at, r.tx_id));
        assert_eq!(expected.len(), txs.len());
        assert_eq!(format!("{drained:?}"), format!("{expected:?}"));
    }
}
