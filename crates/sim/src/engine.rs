//! The **single dispatch core** the simulator runs on.
//!
//! [`DispatchCore`] owns a deployment's processes (a `ProcessTable`: one
//! slot vector per role) plus the structures the step loop needs — a
//! [`MessagePool`] delivery heap, a `(at, TxId)`-keyed invocation heap, a
//! [`Scheduler`] instance, the transaction records (a `RecordLog`: a vector
//! in INV order, a dense `TxId → slot` index and a forward-only cursor at
//! the earliest transaction in flight) and the commit log.  The two heaps
//! order events; every other per-step lookup is an index (see
//! `crate::tables`).  The core makes **every dispatch decision in the
//! workspace**: invocation-vs-delivery choice, clock advance, handler
//! execution, effect application, step accounting, the one wait loop
//! (`DispatchCore::run`), and the adversarial driving entry points
//! ([`crate::Simulation::deliver_where`], [`crate::Simulation::force_invoke`]).
//! It also derives the instrumentation a [`snow_core::History`] carries —
//! rounds, C2C counts, read results — from the [`Causal`] stamp of the
//! message being handled, straight into the [`TxRecord`] it describes
//! (`DispatchCore::stamp`; there is no ledger beside the records).
//!
//! [`crate::Simulation`] wraps exactly one core.  Module privacy keeps the
//! core single: every field of `DispatchCore` — the pool, the clock, the
//! process table, the fault state — is private to this module, and the
//! wrapper gets a handful of narrow methods (plan an invocation, run, read
//! the clock and the counters), so a second dispatch loop elsewhere cannot
//! compile.
//!
//! # The clock invariant
//!
//! All clock movement funnels through [`DispatchCore::advance_past`]:
//! dispatching an event advances `now` to `max(now, event_time) + 1`, so
//! **no event is ever dispatched at a clock earlier than its own
//! timestamp** — a delivery never happens before its scheduler-stamped
//! `deliver_at`, a (possibly forced) invocation never before its planned
//! `at`.  The paper's SNOW arguments and the strict-serializability
//! checkers derive real-time precedence edges from these timestamps, so a
//! violation silently widens or inverts the intervals they reason about.
//! The pre-unification `deliver_where`/`force_invoke` paths advanced
//! `now += 1` without the clamp, letting adversarial schedules (the
//! Figs. 3–5 style constructions) record a RESP *before* the delivery
//! that caused it; the clamp fixes that, and debug assertions downstream
//! of it — the delivery-timestamp check in `DispatchCore::deliver` and
//! the monotonicity check in `DispatchCore::audit_clock` — keep the
//! invariant audited.

use crate::fault::{CrashPolicy, FaultSchedule, FaultState, RestartFn, SendVerdict};
use crate::message::{Causal, MsgId, MsgInfo, MsgKind, PendingMessage, SimMessage as _};
use crate::pool::MessagePool;
use crate::scheduler::Scheduler;
use crate::tables::{ProcessTable, RecordLog};
use snow_core::{ClientId, Effects, Process, ProcessId, ReadResult, TxId, TxKind, TxRecord, TxSpec};
use snow_obs::{NullSink, ObsEvent, TraceSink};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
/// retired.  `live[0]` is commit number `retired`.
#[derive(Debug, Default)]
struct CommitLog {
    live: VecDeque<TxId>,
    retired: u64,
}

impl CommitLog {
    /// Total number of commits (RESP actions) ever logged, retired entries
    /// included.
    fn count(&self) -> u64 {
        self.retired + self.live.len() as u64
    }

    /// The live entries from commit number `cursor` on, in RESP order
    /// (a `cursor` below the retired prefix starts at the oldest live
    /// entry).  O(entries yielded): the run loops' commit gate asks for the
    /// last one or two entries of an arbitrarily long log after every step.
    fn since(&self, cursor: u64) -> impl Iterator<Item = TxId> + '_ {
        let skip = cursor.saturating_sub(self.retired) as usize;
        self.live.range(skip.min(self.live.len())..).copied()
    }

    /// Retires every entry before commit number `up_to`, so a drained log
    /// stays O(drain window) instead of O(transactions).
    fn retire(&mut self, up_to: u64) {
        while self.retired < up_to && self.live.pop_front().is_some() {
            self.retired += 1;
        }
    }
}

/// One dispatch core: a self-contained engine over a deployment's
/// processes.  See the module docs; its fields are private to this module.
///
/// `O` is the observability sink the core emits [`ObsEvent`]s into.  The
/// default [`NullSink`] has `ENABLED = false`, so every emission site —
/// written `if O::ENABLED { … }` — monomorphizes away entirely: an
/// unobserved core is the pre-observability core, instruction for
/// instruction.  All stamps are **virtual ticks** (`self.now`); the core
/// never reads a wall clock.
pub(crate) struct DispatchCore<P: Process, S, O: TraceSink = NullSink> {
    processes: ProcessTable<P>,
    pool: MessagePool<P::Msg>,
    invocations: BinaryHeap<QueuedInvocation>,
    scheduler: S,
    /// One record per invoked transaction, in INV order, instrumentation
    /// (rounds, C2C counts, read results) folded in as the actions happen.
    records: RecordLog,
    commits: CommitLog,
    /// Time of the last external action ([`DispatchCore::audit_clock`]).
    last_action_at: u64,
    now: u64,
    next_msg: u64,
    steps: u64,
    max_steps: u64,
    /// Commit-log position of the last [`DispatchCore::drain_commits`].
    commit_cursor: u64,
    /// The one output buffer every handler of this core writes into;
    /// [`DispatchCore::apply_effects`] drains it and keeps its capacity.
    effects: Effects<P::Msg>,
    /// Observability sink (virtual-time events only; `NullSink` by
    /// default, which compiles the emission sites away).
    sink: O,
    /// Fault engine state (`None` = fault-free: every fault check is
    /// guarded by `is_some()`, so an unfaulted core executes the exact
    /// pre-fault-engine path and histories stay byte-identical).
    faults: Option<FaultState<P>>,
}

impl<P, S, O> DispatchCore<P, S, O>
where
    P: Process,
    S: Scheduler<P::Msg>,
    O: TraceSink,
{
    pub(crate) fn new(scheduler: S) -> Self
    where
        O: Default,
    {
        DispatchCore {
            processes: ProcessTable::new(),
            pool: MessagePool::new(),
            invocations: BinaryHeap::new(),
            scheduler,
            records: RecordLog::default(),
            commits: CommitLog::default(),
            last_action_at: 0,
            now: 0,
            next_msg: 0,
            steps: 0,
            max_steps: 1_000_000,
            commit_cursor: 0,
            effects: Effects::new(0),
            sink: O::default(),
            faults: None,
        }
    }

    /// Rebuilds this core around a different observability sink (type
    /// changing, so the emission sites re-monomorphize for `O2`).
    pub(crate) fn with_sink<O2: TraceSink>(self, sink: O2) -> DispatchCore<P, S, O2> {
        DispatchCore {
            processes: self.processes,
            pool: self.pool,
            invocations: self.invocations,
            scheduler: self.scheduler,
            records: self.records,
            commits: self.commits,
            last_action_at: self.last_action_at,
            now: self.now,
            next_msg: self.next_msg,
            steps: self.steps,
            max_steps: self.max_steps,
            commit_cursor: self.commit_cursor,
            effects: self.effects,
            sink,
            faults: self.faults,
        }
    }

    /// Yields and clears the sink's collected events.
    pub(crate) fn drain_events(&mut self) -> Vec<ObsEvent> {
        self.sink.drain()
    }

    /// Registers a process.  Panics if a process with the same id exists.
    pub(crate) fn add_process(&mut self, process: P) {
        let id = process.id();
        let prev = self.processes.insert(id, process);
        assert!(prev.is_none(), "duplicate process id {id}");
    }

    /// The core's virtual clock.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Overrides the safety cap on steps.
    pub(crate) fn set_max_steps(&mut self, max_steps: u64) {
        self.max_steps = max_steps;
    }

    /// Attaches a fault schedule (see `Simulation::with_faults`).
    pub(crate) fn set_faults(&mut self, schedule: FaultSchedule, restart: Option<RestartFn<P>>) {
        self.faults = Some(FaultState::new(schedule, restart));
    }

    /// Plans `client`'s invocation of `spec` as transaction `tx` at `at`.
    pub(crate) fn plan(&mut self, at: u64, tx: TxId, client: ClientId, spec: TxSpec) {
        self.invocations.push(QueuedInvocation { at, tx, client, spec });
    }

    /// A registered process of this core.
    pub(crate) fn process(&self, id: ProcessId) -> Option<&P> {
        self.processes.get(id)
    }

    /// Number of messages in flight.
    pub(crate) fn pending_count(&self) -> usize {
        self.pool.len()
    }

    /// The messages in flight, in send (id) order.
    pub(crate) fn pending(&self) -> impl Iterator<Item = &PendingMessage<P::Msg>> + '_ {
        self.pool.iter()
    }

    pub(crate) fn is_complete(&self, tx: TxId) -> bool {
        self.records.is_complete(tx)
    }

    /// True if this core has nothing left to do (nothing pending, nothing
    /// planned).
    pub(crate) fn is_quiescent(&self) -> bool {
        self.pool.is_empty() && self.invocations.is_empty()
    }

    /// **The one dispatch rule**: the earliest planned invocation is the
    /// next event iff its planned time has been reached or no pending
    /// delivery is keyed at or before it; otherwise the scheduler picks a
    /// delivery.  The core therefore dispatches in ascending key order, so
    /// an invocation planned at quiescence is stamped `planned + 1`, and no
    /// invocation waits behind a delivery keyed after it.  Returns the
    /// planned time of the invocation when it is the next event;
    /// `earliest_key` is the pool's [`MessagePool::peek_earliest`] key.
    fn due_invocation(&self, earliest_key: Option<u64>) -> Option<u64> {
        let at = self.invocations.peek()?.at;
        (at <= self.now || earliest_key.is_none_or(|key| at < key)).then_some(at)
    }

    fn count_step(&mut self) {
        self.steps += 1;
        assert!(
            self.steps <= self.max_steps,
            "engine exceeded {} steps; likely livelock",
            self.max_steps
        );
    }

    /// The one clock rule: dispatching an event stamped `event_at`
    /// advances `now` to `max(now, event_at) + 1`.  Every `now` mutation
    /// in the workspace goes through here, so the invariant *an event is
    /// never dispatched at a clock earlier than its own timestamp* holds
    /// by construction.  A path that bypassed the clamp would trip the
    /// debug assertions downstream of it: the timestamp check in
    /// [`DispatchCore::deliver`] and [`DispatchCore::audit_clock`].
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
    /// ([`DispatchCore::due_invocation`]) wins over a delivery; deliveries
    /// are chosen by the scheduler, which may pick *any* live message.
    /// Returns `None` without counting a step if nothing is dispatchable.
    fn try_dispatch(&mut self) -> Option<StepOutcome> {
        // The one heap peek of this dispatch: it decides the due rule.
        let earliest_key = self.pool.peek_earliest().map(|(key, _)| key);
        if self.due_invocation(earliest_key).is_some() {
            let inv = self.invocations.pop().expect("peeked invocation");
            self.count_step();
            self.advance_past(inv.at);
            self.dispatch_invocation(inv.tx, inv.client, inv.spec);
            return Some(StepOutcome::Invoked(inv.tx));
        }
        let msg = self.scheduler.next(&mut self.pool, self.now)?;
        self.count_step();
        Some(StepOutcome::Delivered(self.dispatch_delivery(msg)))
    }

    /// Dispatches a message taken out of the pool: the clock clamp, the
    /// crash-window gate, the handler.  Returns its id.
    fn dispatch_delivery(&mut self, msg: PendingMessage<P::Msg>) -> MsgId {
        let id = msg.id;
        self.advance_past(msg.deliver_at.unwrap_or(self.now));
        if let Some(msg) = self.crash_intercept(msg) {
            self.deliver(msg);
        }
        id
    }

    /// One serial step (the historical [`crate::Simulation::step`] contract): an
    /// idle probe — nothing dispatchable — still counts a step.
    pub(crate) fn step(&mut self) -> StepOutcome {
        match self.try_dispatch() {
            Some(outcome) => outcome,
            None => {
                self.count_step();
                StepOutcome::Quiescent
            }
        }
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
    /// retires what a fault schedule orphaned
    /// ([`DispatchCore::abort_orphans`]).  A `watch` with an
    /// already-complete member returns at once.  Returns the steps
    /// executed.
    pub(crate) fn run(&mut self, watch: &[TxId]) -> u64 {
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

    /// Manual (adversarial) delivery of the first pending message (in send
    /// order) matching `pred`, bypassing the scheduler — see
    /// [`crate::Simulation::deliver_where`].  The clock clamp is the same
    /// as a scheduled delivery's: adversarial order, not adversarial time
    /// travel.
    pub(crate) fn deliver_where<F>(&mut self, pred: F) -> Option<MsgId>
    where
        F: Fn(&PendingMessage<P::Msg>) -> bool,
    {
        let msg = self.pool.take_first(pred)?;
        Some(self.dispatch_delivery(msg))
    }

    /// Manual (adversarial) dispatch of `client`'s next planned invocation
    /// — see [`crate::Simulation::force_invoke`].  The clock clamp matches the
    /// scheduled invocation rule: the INV is recorded no earlier than its
    /// planned time.
    pub(crate) fn force_invoke(&mut self, client: ClientId) -> Option<TxId> {
        // "Next" = smallest (at, tx) among that client's plans, matching the
        // engine's dispatch order.  Heap iteration is unordered, so take the
        // minimum explicitly; this adversarial path may be O(n).
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

    fn dispatch_invocation(&mut self, tx: TxId, client: ClientId, spec: TxSpec) {
        let pid = ProcessId::Client(client);
        self.audit_clock();
        // Everything planned so far will be logged: one growth, not a
        // doubling per batch.
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

    fn deliver(&mut self, msg: PendingMessage<P::Msg>) {
        // Delivery must happen strictly after the message's own timestamp.
        debug_assert!(
            msg.deliver_at.is_none_or(|at| at < self.now) && msg.sent_at < self.now,
            "message {} delivered before its own timestamp (sent_at {}, deliver_at {:?}, now {})",
            msg.id,
            msg.sent_at,
            msg.deliver_at,
            self.now
        );
        let (info, causal) = (msg.msg.info(), msg.causal);
        self.audit_clock();
        self.note_read_response(&msg, &info);
        if O::ENABLED {
            self.sink.emit(ObsEvent::MessageDelivered {
                at: self.now,
                msg: msg.id.0,
                kind: info.kind,
                tx: info.tx,
                src: msg.src,
                dst: msg.dst,
                queue_depth: self.pool.len() as u32,
            });
        }
        let process = self
            .processes
            .get_mut(msg.dst)
            .unwrap_or_else(|| panic!("message to unknown process {}", msg.dst));
        process.on_message(msg.src, msg.msg, &mut self.effects);
        self.apply_effects(msg.dst, Some((info, causal)));
    }

    /// Folds a read response into the instrumentation of its READ, before
    /// the handler runs: one [`ReadResult`] per response carrying an object
    /// that a server sent the **invoking client** — and only until the RESP,
    /// at which the record is final (a duplicate or a slow replica's answer
    /// delivered later is a straggler, not instrumentation).
    fn note_read_response(&mut self, msg: &PendingMessage<P::Msg>, info: &MsgInfo) {
        if info.kind != MsgKind::ReadResponse {
            return;
        }
        let (Some(tx), Some(object), Some(server), ProcessId::Client(client)) =
            (info.tx, info.object, msg.src.as_server(), msg.dst)
        else {
            return; // e.g. a metadata response (get-tag-arr) names no object
        };
        let Some(rec) = self.records.get_mut(tx) else { return };
        if rec.client == client && rec.responded_at.is_none() && rec.kind() == TxKind::Read {
            rec.reads.push(ReadResult {
                object,
                server,
                versions_in_response: info.versions.max(1),
                nonblocking: msg.causal.direct,
            });
        }
    }

    /// **The one definition of the causal stamp** (see [`Causal`]) of a send
    /// by `at`, classified `info`, made while handling `handled` (`None` in
    /// an INV handler) — folded, at the same site, into the record it
    /// describes: a C2C send into its transaction's C2C count, whoever
    /// sends it; any other send by the invoker into its round count.
    fn stamp(
        &mut self,
        at: ProcessId,
        info: &MsgInfo,
        handled: Option<(MsgInfo, Causal)>,
    ) -> Causal {
        let Some(tx) = info.tx else { return Causal::ROOT };
        let rec = self.records.get_mut(tx);
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

    /// The one enqueue path of a send and of its fault-engine duplicate:
    /// the scheduler's draw, the pool, the `MessageSent` event.  `ordinal`
    /// counts the `enqueue` calls of the current `apply_effects` before
    /// this one — with `(src, dst, now)`, the send's coordinates.
    /// `verdict` has the last word on whether and when the message travels.
    fn enqueue(
        &mut self,
        mut msg: PendingMessage<P::Msg>,
        info: &MsgInfo,
        verdict: &SendVerdict,
        ordinal: u64,
    ) {
        self.audit_clock();
        msg.deliver_at = self.scheduler.on_send(msg.src, msg.dst, self.now, ordinal);
        if verdict.extra_delay > 0 || verdict.hold_until.is_some() {
            let base = msg.deliver_at.unwrap_or(self.now).saturating_add(verdict.extra_delay);
            msg.deliver_at = Some(base.max(verdict.hold_until.unwrap_or(0)));
        }
        let (id, src, dst) = (msg.id, msg.src, msg.dst);
        // A dropped send is never inserted: the drop is an event of the run.
        if !verdict.dropped {
            self.pool.insert(msg);
        }
        if O::ENABLED {
            self.sink.emit(ObsEvent::MessageSent {
                at: self.now,
                msg: id.0,
                kind: info.kind,
                tx: info.tx,
                src,
                dst,
                queue_depth: self.pool.len() as u32,
            });
        }
    }

    fn next_msg_id(&mut self) -> MsgId {
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        id
    }

    /// Applies what the handler just run at `at` left in the core's
    /// [`Effects`] buffer: its sends in emission order, then its RESPs.  The
    /// buffer is taken out for the drain and put back emptied, its
    /// capacity kept for the next handler call.
    fn apply_effects(&mut self, at: ProcessId, handled: Option<(MsgInfo, Causal)>) {
        let mut effects = std::mem::replace(&mut self.effects, Effects::new(0));
        let mut ordinal = 0; // of the next `enqueue` within this handler execution
        for (to, m) in effects.drain_sends() {
            let info = m.info();
            let causal = self.stamp(at, &info, handled);
            let id = self.next_msg_id();
            let msg = PendingMessage {
                id,
                src: at,
                dst: to,
                msg: m,
                sent_at: self.now,
                causal,
                deliver_at: None, // the scheduler's, stamped by `enqueue`
            };
            // `send_verdict` is a pure function of `(schedule, src, dst,
            // sent_at, ordinal)`, so verdicts are independent of decision
            // order.
            let verdict = match self.faults.as_ref() {
                Some(f) => f.schedule.send_verdict(at, to, self.now, ordinal),
                None => SendVerdict::default(),
            };
            if self.faults.is_some() {
                self.note_partitions();
            }
            let dup = (verdict.duplicate && !verdict.dropped).then(|| msg.clone());
            self.enqueue(msg, &info, &verdict, ordinal);
            ordinal += 1;
            if verdict.dropped && O::ENABLED {
                self.sink.emit(ObsEvent::MessageDropped {
                    at: self.now,
                    msg: id.0,
                    src: at,
                    dst: to,
                });
            }
            if let Some(copy) = dup {
                // The duplicate is a first-class send: its own id, its own
                // scheduler draw, its own stamp from the same inputs (so a
                // duplicated C2C send counts twice).  It is not re-evaluated
                // against the fault schedule (no duplicate storms of
                // duplicates).
                let causal = self.stamp(at, &info, handled);
                let dup_id = self.next_msg_id();
                let copy = PendingMessage { id: dup_id, causal, ..copy };
                self.enqueue(copy, &info, &SendVerdict::default(), ordinal);
                ordinal += 1;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::MessageDuplicated {
                        at: self.now,
                        original: id.0,
                        duplicate: dup_id.0,
                        src: at,
                        dst: to,
                    });
                }
            }
        }
        for (tx, outcome) in effects.drain_responses() {
            self.log_commit(tx);
            if let Some(rec) = self.records.respond(tx, self.now, outcome) {
                if O::ENABLED {
                    self.sink.emit(ObsEvent::TxCommitted {
                        at: self.now,
                        tx,
                        client: rec.client,
                        invoked_at: rec.invoked_at,
                    });
                }
            }
        }
        self.effects = effects;
    }

    /// RESP(`tx`): appends it to the commit log.
    fn log_commit(&mut self, tx: TxId) {
        self.audit_clock();
        self.commits.live.push_back(tx);
    }

    /// The transaction records — every instrumentation count already in
    /// them — in `(invoked_at, tx_id)` order, a [`snow_core::History`]'s
    /// own.
    pub(crate) fn records(&self) -> &[TxRecord] {
        self.records.as_slice()
    }

    /// The records of every commit logged since the last drain, in RESP
    /// order — the streaming checker's incremental alternative to
    /// re-assembling the whole history per poll — retiring that prefix of
    /// the commit log.
    pub(crate) fn drain_commits(&mut self) -> Vec<TxRecord> {
        let records = self
            .commits
            .since(self.commit_cursor)
            .filter_map(|tx| self.records.get(tx))
            .cloned()
            .collect();
        self.commit_cursor = self.commits.count();
        self.commits.retire(self.commit_cursor);
        records
    }

    /// A lower bound on the `invoked_at` of every commit the core will
    /// log *after* the current drain point ([`RecordLog::inv_floor`]): the
    /// watermark a streaming checker may advance its certification
    /// frontier to.
    pub(crate) fn inv_floor(&self) -> u64 {
        self.records.inv_floor(self.now)
    }

    /// Delivery-side fault gate, called after the clock clamp and before
    /// the handler runs.  Applies any crash recoveries for the destination
    /// that have elapsed by `now` (the process is rebuilt **from fresh
    /// state** by the restart factory), then intercepts the delivery if the
    /// attempt lands inside an active crash window: `DropInFlight` loses
    /// the message, `QueueInFlight` re-queues it to deliver no earlier than
    /// the recovery tick.  Returns the message iff delivery proceeds.
    /// A no-op (`Some(msg)`) without a fault schedule.
    fn crash_intercept(&mut self, msg: PendingMessage<P::Msg>) -> Option<PendingMessage<P::Msg>> {
        let Some(mut faults) = self.faults.take() else { return Some(msg) };
        let dst = msg.dst;
        // Recoveries first: every window of `dst` that fully elapsed must
        // have restarted the process before this delivery observes it —
        // even if no delivery was attempted inside the window itself (the
        // state loss happened regardless).
        for i in faults.schedule.elapsed_crashes(dst, self.now) {
            if faults.crash_recovered[i] {
                continue;
            }
            let crash = faults.schedule.crashes[i];
            if !faults.crash_announced[i] {
                faults.crash_announced[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::ServerCrashed { at: self.now, server: crash.server });
                }
            }
            faults.crash_recovered[i] = true;
            let restart = faults
                .restart
                .as_mut()
                .expect("crash schedules carry a restart factory (FaultState::new)");
            let fresh = restart(dst);
            assert_eq!(fresh.id(), dst, "restart factory rebuilt the wrong process");
            self.processes.insert(dst, fresh);
            if O::ENABLED {
                self.sink.emit(ObsEvent::ServerRecovered { at: self.now, server: crash.server });
            }
        }
        let mut verdict = Some(msg);
        if let Some((i, crash)) = faults.schedule.crash_window(dst, self.now) {
            if !faults.crash_announced[i] {
                faults.crash_announced[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::ServerCrashed { at: self.now, server: crash.server });
                }
            }
            let msg = verdict.take().expect("set above");
            match crash.policy {
                CrashPolicy::DropInFlight => {
                    if O::ENABLED {
                        self.sink.emit(ObsEvent::MessageDropped {
                            at: self.now,
                            msg: msg.id.0,
                            src: msg.src,
                            dst: msg.dst,
                        });
                    }
                }
                CrashPolicy::QueueInFlight => {
                    // Held for the restarted process: re-queued with its
                    // delivery pushed to the recovery tick (the clock
                    // already advanced past the attempt, so the next pick
                    // lands at or past `recover_at` and takes the recovery
                    // path above).
                    let mut held = msg;
                    held.deliver_at = Some(crash.recover_at);
                    self.pool.insert(held);
                }
            }
        }
        self.faults = Some(faults);
        verdict
    }

    /// Lazily announces partition starts and heals: each transition is
    /// emitted once, on the first send decision whose clock observes it.
    /// Pure bookkeeping — the actual cut is decided per message by
    /// [`FaultSchedule::send_verdict`].
    fn note_partitions(&mut self) {
        let Some(faults) = self.faults.as_mut() else { return };
        for (i, p) in faults.schedule.partitions.iter().enumerate() {
            if !faults.partition_started[i] && self.now >= p.from && self.now < p.until {
                faults.partition_started[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::PartitionStarted { at: self.now, partition: i as u32 });
                }
            }
            if faults.partition_started[i] && !faults.partition_healed[i] && self.now >= p.until {
                faults.partition_healed[i] = true;
                if O::ENABLED {
                    self.sink.emit(ObsEvent::PartitionHealed { at: self.now, partition: i as u32 });
                }
            }
        }
    }

    /// Fault-engine retirement rule: once the core is quiescent, any
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
            self.log_commit(tx);
            // Let the client automaton drop its in-flight state for the
            // orphan, so the next invocation finds it idle.
            if let Some(p) = self.processes.get_mut(ProcessId::Client(client)) {
                p.on_abort(tx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::LatencyScheduler;
    use crate::Simulation;
    use snow_core::{ObjectId, ReadOutcome, ServerId, TxOutcome};

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

    impl crate::message::SimMessage for Routed {
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

    /// The records of one READ by client 0 per route, one after the other,
    /// on the serial engine.
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
        // A cursor resumes mid-log without re-yielding drained entries.
        let tail = vec![TxId(17), TxId(18), TxId(19)];
        assert_eq!(log.since(17).collect::<Vec<_>>(), tail);
        // Retiring a prefix drops its storage but not the numbering.
        log.retire(17);
        assert_eq!((log.count(), log.retired), (20, 17));
        assert_eq!(log.since(17).collect::<Vec<_>>(), tail);
        // A stale cursor starts at the oldest live entry; retiring past
        // the end is clamped.
        assert_eq!(log.since(0).count(), 3);
        log.retire(100);
        assert_eq!((log.count(), log.retired), (20, 20));
        assert_eq!(log.since(0).count(), 0);
    }
}
