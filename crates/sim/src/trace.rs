//! Action traces: the external actions of an execution, in order.
//!
//! A [`Trace`] is the executable analogue of the paper's executions
//! `σ₀, a₁, σ₁, …`: we record only the actions (the paper does the same to
//! "simplify notation"), each tagged with the automaton at which it occurs,
//! the simulation time, and — for sends — the causal parent message.
//!
//! # Incremental indexes
//!
//! Derived quantities are maintained *as actions are recorded*, so the
//! per-transaction queries the history assembly needs are O(1)/O(answer)
//! instead of O(actions) rescans:
//!
//! * `MsgId → send/recv action` lookup tables make [`Trace::send_of`],
//!   [`Trace::recv_of`] and [`Trace::parent_of`] O(1);
//! * per-transaction counters accumulate C2C sends, round depths (the causal
//!   parent-chain walk runs at record time, each hop now O(1)), and the
//!   [`ReadResult`] instrumentation of read responses received by the
//!   invoking client;
//! * per-transaction and per-process action lists back [`Trace::of_tx`] and
//!   [`Trace::at`] without scanning.
//!
//! With these indexes, [`crate::Simulation::history`] is a single pass over
//! the recorded transactions rather than O(transactions × actions).
//!
//! Read-response instrumentation requires the transaction's `Invoke` action
//! to be recorded before its message actions (always true for engine-driven
//! traces; hand-built traces must follow the same order).
//!
//! # Bounded action logs
//!
//! For million-transaction workloads the raw action log dominates memory.
//! [`Trace::with_action_capacity`] bounds it: only a sliding window of
//! recent actions is retained (at least `capacity`, at most `2 × capacity`
//! so eviction amortizes to O(1)), while every incremental aggregate —
//! round depths, C2C counts, read instrumentation — is maintained from a
//! compact per-message side table (`SendMeta`) and therefore stays
//! *exactly* equal to the unbounded trace's.  In bounded mode that side
//! table is itself pruned per transaction at RESP, so total memory is
//! O(window + in-flight) rather than O(messages): by the time a
//! transaction responds, every aggregate its invoker contributes to a
//! [`snow_core::History`] is final — a client's causal parent chains never
//! leave its own transaction, and the non-blocking verdict of a read
//! response only inspects the response's immediate parent, which is
//! recorded before the RESP.  Queries over evicted actions
//! ([`Trace::send_of`], [`Trace::recv_of`], [`Trace::at`],
//! [`Trace::of_tx`]) simply omit them, and [`Trace::parent_of`] forgets
//! links of completed transactions.

use crate::message::{MsgId, MsgInfo, MsgKind};
use snow_core::{ProcessId, ReadResult, TxId, TxKind};
use snow_core::FxHashMap;
use std::collections::VecDeque;

/// The kind of an externally visible action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionKind {
    /// INV(T): a transaction was invoked at a client.
    Invoke {
        /// The transaction.
        tx: TxId,
        /// READ or WRITE.
        kind: TxKind,
    },
    /// RESP(T): a transaction completed at a client.
    Respond {
        /// The transaction.
        tx: TxId,
    },
    /// `send(m)_{at,to}`: the process emitted a message.
    Send {
        /// Message id.
        msg: MsgId,
        /// Destination process.
        to: ProcessId,
        /// The message (or invocation handler) that causally produced this
        /// send; `None` if it was produced while handling an invocation.
        parent: Option<MsgId>,
        /// Classification of the message.
        info: MsgInfo,
    },
    /// `recv(m)_{from,at}`: the process received a message.
    Recv {
        /// Message id.
        msg: MsgId,
        /// Originating process.
        from: ProcessId,
        /// Classification of the message.
        info: MsgInfo,
    },
}

/// One externally visible action of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Position of the action in the execution (0-based).
    pub seq: u64,
    /// Simulation time at which the action occurred.
    pub time: u64,
    /// The automaton at which the action occurred.
    pub at: ProcessId,
    /// What happened.
    pub kind: ActionKind,
}

impl Action {
    /// The transaction this action belongs to, if it can be attributed.
    pub fn tx(&self) -> Option<TxId> {
        match &self.kind {
            ActionKind::Invoke { tx, .. } | ActionKind::Respond { tx } => Some(*tx),
            ActionKind::Send { info, .. } | ActionKind::Recv { info, .. } => info.tx,
        }
    }
}

/// Per-transaction incrementally maintained statistics.
#[derive(Debug, Clone, Default)]
struct TxIndex {
    /// Sequence numbers of this transaction's actions, in order (front
    /// entries are dropped as the ring evicts them).
    actions: VecDeque<u64>,
    /// The process at which the transaction's INV occurred.
    invoker: Option<ProcessId>,
    /// Client-to-client sends attributed to this transaction.
    c2c_sends: u32,
    /// Max causal round depth per sending process (tiny: one client plus,
    /// rarely, helpers).
    rounds_by_sender: Vec<(ProcessId, u32)>,
    /// Read-response instrumentation, in receive order at the invoker.
    reads: Vec<ReadResult>,
    /// Message ids sent on behalf of this transaction — tracked only in
    /// bounded mode, so their [`SendMeta`] entries can be pruned at RESP.
    msgs: Vec<MsgId>,
    /// True once the transaction's RESP was recorded (bounded mode prunes
    /// the causal metadata of its post-RESP straggler traffic on delivery).
    responded: bool,
}

/// Compact record-time metadata of one send: everything the causal
/// derivations (round depth, non-blocking verdict, parent links) need,
/// independent of whether the full `Send` action is still retained.
#[derive(Debug, Clone)]
struct SendMeta {
    to: ProcessId,
    kind: MsgKind,
    tx: Option<TxId>,
    origin: MetaOrigin,
}

/// Where a send's causal metadata came from.
#[derive(Debug, Clone)]
enum MetaOrigin {
    /// The send was recorded by this trace; its causal ancestors are
    /// reachable by walking `parent` links through `send_meta`.
    Local {
        /// The message whose handler produced this send, if any.
        parent: Option<MsgId>,
    },
    /// The send happened in *another* trace (a different shard of a
    /// parallel simulation) and arrived here through
    /// [`Trace::import_envelope`].  The ancestor chain is not locally
    /// walkable, so the envelope carries its pre-folded summary instead.
    Imported {
        /// Destination counts over the message's whole ancestor chain,
        /// **including the message's own destination** — the summary
        /// [`Trace::chain_depth`] needs to finish a walk that crosses a
        /// shard boundary.
        dests: Box<[(ProcessId, u32)]>,
        /// Classification of the causal parent, for the non-blocking
        /// verdict of read responses.
        parent_kind: Option<MsgKind>,
        /// Transaction attribution of the causal parent.
        parent_tx: Option<TxId>,
    },
}

/// The causal metadata of one message in transit between two traces: what a
/// sharded engine ships alongside a cross-shard [`crate::PendingMessage`] so
/// the receiving shard's trace can derive the same round counts and
/// non-blocking verdicts the sending shard would have.  Produce with
/// [`Trace::export_envelope`], consume with [`Trace::import_envelope`].
#[derive(Debug, Clone)]
pub struct CausalEnvelope {
    /// Destination of the message itself.
    pub to: ProcessId,
    /// Classification of the message.
    pub kind: MsgKind,
    /// Transaction attribution of the message.
    pub tx: Option<TxId>,
    /// Destination counts over the message and all its causal ancestors
    /// (the message's own destination included).
    pub dests: Vec<(ProcessId, u32)>,
    /// Classification of the causal parent, if the sending trace knew it.
    pub parent_kind: Option<MsgKind>,
    /// Transaction attribution of the causal parent.
    pub parent_tx: Option<TxId>,
}

/// The ordered list of external actions of one execution, with incremental
/// per-transaction indexes (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Retained actions; a sliding window of the full log when a capacity
    /// is set, the full log otherwise.
    actions: Vec<Action>,
    /// Sequence number of `actions[0]` (> 0 once evictions happened).
    base_seq: u64,
    /// Total number of actions ever recorded.
    recorded: u64,
    /// Retained-action cap (`None` = unbounded).
    capacity: Option<usize>,
    /// `MsgId → seq of its Send action`.
    send_seq: FxHashMap<MsgId, u64>,
    /// `MsgId → seq of its Recv action`.
    recv_seq: FxHashMap<MsgId, u64>,
    /// `MsgId → send metadata` (kept across evictions; see [`SendMeta`]).
    send_meta: FxHashMap<MsgId, SendMeta>,
    /// Per-transaction statistics.
    by_tx: FxHashMap<TxId, TxIndex>,
    /// Per-process action seqs (the projection `trace(α)|p`).
    by_proc: FxHashMap<ProcessId, VecDeque<u64>>,
    /// Commit log: transactions in RESP order, minus the prefix already
    /// retired by [`Trace::retire_commits`].  `commits[0]` is commit
    /// number `commits_retired`.
    commits: VecDeque<TxId>,
    /// Number of commit-log entries retired so far.
    commits_retired: u64,
    /// Highest action time recorded so far — backs the debug-mode
    /// monotonicity assertion in [`Trace::record`].
    last_time: u64,
}

impl Trace {
    /// Creates an empty trace retaining every action.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace that retains a bounded sliding window of
    /// recent actions: always the most recent `capacity`, never more than
    /// `2 × capacity` (eviction is batched so recording stays amortized
    /// O(1)).  All incremental aggregates — round depths, C2C counts, read
    /// instrumentation — are unaffected by eviction and match the
    /// unbounded trace exactly; only the raw-action queries forget evicted
    /// history.
    ///
    /// The compact per-message causality table backing those aggregates
    /// (~40 B per send) is pruned per transaction at its RESP, so total
    /// memory is O(window + in-flight messages) rather than O(messages).
    /// Consequently [`Trace::parent_of`] only answers for messages of
    /// still-in-flight transactions (and for unattributable control
    /// traffic, which is never pruned).
    pub fn with_action_capacity(capacity: usize) -> Self {
        Trace {
            capacity: Some(capacity),
            ..Trace::default()
        }
    }

    /// The retained-action cap, if one was set.
    pub fn action_capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Appends an action, assigning it the next sequence number and folding
    /// it into the derived indexes.
    pub fn record(&mut self, time: u64, at: ProcessId, kind: ActionKind) {
        // The real-time precedence edges the checkers derive are only
        // trustworthy if recorded action times never regress — the engine's
        // clock clamp guarantees it; this assertion keeps it audited.
        debug_assert!(
            time >= self.last_time,
            "non-monotone trace timestamp: recording {time} after {}",
            self.last_time
        );
        self.last_time = time;
        let seq = self.recorded;
        self.recorded += 1;
        let action = Action { seq, time, at, kind };
        self.index_action(seq, &action);
        self.actions.push(action);
        if let Some(cap) = self.capacity {
            // Amortized O(1): let the buffer grow to 2× the cap, then slide
            // the window in one drain.
            if self.actions.len() > cap.saturating_mul(2).max(1) {
                let excess = self.actions.len() - cap;
                self.evict(excess);
            }
        }
    }

    /// Drops the `count` oldest retained actions and their index entries.
    fn evict(&mut self, count: usize) {
        for action in self.actions.drain(..count) {
            match &action.kind {
                ActionKind::Send { msg, .. } => {
                    self.send_seq.remove(msg);
                }
                ActionKind::Recv { msg, .. } => {
                    self.recv_seq.remove(msg);
                }
                _ => {}
            }
            if let Some(list) = self.by_proc.get_mut(&action.at) {
                if list.front() == Some(&action.seq) {
                    list.pop_front();
                }
            }
            if let Some(tx) = action.tx() {
                if let Some(index) = self.by_tx.get_mut(&tx) {
                    if index.actions.front() == Some(&action.seq) {
                        index.actions.pop_front();
                    }
                }
            }
        }
        self.base_seq += count as u64;
    }

    /// The retained action with sequence number `seq`, if not evicted.
    fn action_at(&self, seq: u64) -> Option<&Action> {
        seq.checked_sub(self.base_seq)
            .and_then(|i| self.actions.get(i as usize))
    }

    fn index_action(&mut self, seq: u64, action: &Action) {
        self.by_proc.entry(action.at).or_default().push_back(seq);
        if let Some(tx) = action.tx() {
            self.by_tx.entry(tx).or_default().actions.push_back(seq);
        }
        match &action.kind {
            ActionKind::Invoke { tx, .. } => {
                self.by_tx.entry(*tx).or_default().invoker = Some(action.at);
            }
            ActionKind::Respond { tx } => {
                self.commits.push_back(*tx);
                // Bounded mode: the transaction is over, so its causal
                // metadata can no longer influence any aggregate its
                // invoker cares about — drop it, keeping the side table
                // O(in-flight) instead of O(messages).  Straggler traffic
                // attributed to this transaction after its RESP is pruned
                // on delivery (see the `Recv` arm).
                if let Some(index) = self.by_tx.get_mut(tx) {
                    index.responded = true;
                    if self.capacity.is_some() {
                        for msg in index.msgs.drain(..) {
                            self.send_meta.remove(&msg);
                        }
                    }
                }
            }
            ActionKind::Send { msg, parent, info, to } => {
                self.send_seq.insert(*msg, seq);
                self.send_meta.insert(
                    *msg,
                    SendMeta {
                        to: *to,
                        kind: info.kind,
                        tx: info.tx,
                        origin: MetaOrigin::Local { parent: *parent },
                    },
                );
                if self.capacity.is_some() {
                    if let Some(tx) = info.tx {
                        self.by_tx.entry(tx).or_default().msgs.push(*msg);
                    }
                }
                let Some(tx) = info.tx else { return };
                if info.kind == MsgKind::ClientToClient {
                    self.by_tx.entry(tx).or_default().c2c_sends += 1;
                    return;
                }
                // Round depth of this send relative to its sender: 1 plus
                // the number of parent-chain hops that were sends *to* the
                // sender (i.e. responses it was handling).  Parents are
                // always recorded before children, so each hop is an O(1)
                // table lookup and chains are as short as the round count.
                let depth = self.chain_depth(action.at, *parent);
                let entry = self.by_tx.entry(tx).or_default();
                match entry
                    .rounds_by_sender
                    .iter_mut()
                    .find(|(sender, _)| *sender == action.at)
                {
                    Some((_, max)) => *max = (*max).max(depth),
                    None => entry.rounds_by_sender.push((action.at, depth)),
                }
            }
            ActionKind::Recv { msg, from, info } => {
                self.recv_seq.insert(*msg, seq);
                self.index_read_response(action.at, *msg, *from, info);
                // Bounded mode: a delivered message no future RESP will
                // prune — unattributable control traffic, or a straggler of
                // an already-responded transaction — would leak its causal
                // metadata forever; drop it at delivery instead.  (Current
                // protocols address control messages only to servers and
                // emit no post-RESP traffic on hot paths, so the consumed
                // aggregates are unaffected — guarded by the bounded-vs-
                // unbounded workload tests across every protocol.)  The
                // sharded engine prunes one more class — deliveries of
                // transactions invoked on another shard — via
                // [`Trace::prune_meta`] *after* the delivery's handler
                // runs, so the handler's own sends still fold the chain.
                if self.capacity.is_some() {
                    let prunable = match info.tx {
                        None => true,
                        Some(tx) => {
                            self.by_tx.get(&tx).map(|t| t.responded).unwrap_or(false)
                        }
                    };
                    if prunable {
                        self.send_meta.remove(msg);
                    }
                }
            }
        }
    }

    /// Folds a received read response into the invoker's instrumentation.
    fn index_read_response(&mut self, at: ProcessId, msg: MsgId, from: ProcessId, info: &MsgInfo) {
        let Some(tx) = info.tx else { return };
        if info.kind != MsgKind::ReadResponse {
            return;
        }
        // Only responses received by the invoking client count as
        // read instrumentation.
        if self.by_tx.get(&tx).and_then(|t| t.invoker) != Some(at) {
            return;
        }
        let Some(object) = info.object else {
            return; // metadata response (e.g. get-tag-arr)
        };
        let Some(server) = from.as_server() else {
            return;
        };
        // Non-blocking iff the response's causal parent is a read
        // request of the same transaction (the server answered
        // within the handler of the request, without waiting for
        // any other input action).  For a response that crossed a shard
        // boundary the parent lives in the sending shard's trace, so the
        // imported envelope carries the parent's classification instead.
        let nonblocking = match self.send_meta.get(&msg).map(|m| &m.origin) {
            Some(MetaOrigin::Imported { parent_kind, parent_tx, .. }) => {
                *parent_kind == Some(MsgKind::ReadRequest) && *parent_tx == Some(tx)
            }
            _ => self
                .parent_of(msg)
                .and_then(|parent| self.send_meta.get(&parent))
                .map(|meta| meta.kind == MsgKind::ReadRequest && meta.tx == Some(tx))
                .unwrap_or(false),
        };
        self.by_tx.entry(tx).or_default().reads.push(ReadResult {
            object,
            server,
            versions_in_response: info.versions.max(1),
            nonblocking,
        });
    }

    /// Walks a send's causal parent chain, counting `1 +` the hops whose
    /// send was addressed to `sender`.  A hop whose metadata was imported
    /// from another shard carries its whole remaining chain pre-folded
    /// (destination counts), so the walk finishes there in O(1).
    fn chain_depth(&self, sender: ProcessId, parent: Option<MsgId>) -> u32 {
        let mut depth = 1u32;
        let mut cur = parent;
        while let Some(p) = cur {
            let Some(meta) = self.send_meta.get(&p) else { break };
            match &meta.origin {
                MetaOrigin::Local { parent } => {
                    if meta.to == sender {
                        depth += 1;
                    }
                    cur = *parent;
                }
                MetaOrigin::Imported { dests, .. } => {
                    // `dests` already includes the hop's own destination.
                    depth += dests
                        .iter()
                        .find(|(d, _)| *d == sender)
                        .map(|(_, c)| *c)
                        .unwrap_or(0);
                    break;
                }
            }
        }
        depth
    }

    /// Folds the destination counts of `msg`'s causal chain (its own
    /// destination included) into `counts`, finishing in O(1) at any hop
    /// whose metadata was itself imported.
    fn fold_chain_dests(&self, msg: MsgId, counts: &mut Vec<(ProcessId, u32)>) {
        let mut bump = |dest: ProcessId, by: u32| {
            match counts.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, c)) => *c += by,
                None => counts.push((dest, by)),
            }
        };
        let mut cur = Some(msg);
        while let Some(p) = cur {
            let Some(meta) = self.send_meta.get(&p) else { break };
            match &meta.origin {
                MetaOrigin::Local { parent } => {
                    bump(meta.to, 1);
                    cur = *parent;
                }
                MetaOrigin::Imported { dests, .. } => {
                    for (d, c) in dests.iter() {
                        bump(*d, *c);
                    }
                    break;
                }
            }
        }
    }

    /// Exports the causal metadata of a send this trace recorded, for
    /// shipping alongside a cross-shard message.  Returns `None` if the
    /// send's metadata is unknown (never recorded, or already pruned in
    /// bounded mode — the importing side then treats the message as
    /// causally opaque, exactly as a bounded trace's broken chain does).
    pub fn export_envelope(&self, msg: MsgId) -> Option<CausalEnvelope> {
        let meta = self.send_meta.get(&msg)?;
        let mut dests = Vec::new();
        self.fold_chain_dests(msg, &mut dests);
        let (parent_kind, parent_tx) = match &meta.origin {
            MetaOrigin::Local { parent } => parent
                .and_then(|p| self.send_meta.get(&p))
                .map(|pm| (Some(pm.kind), pm.tx))
                .unwrap_or((None, None)),
            MetaOrigin::Imported { parent_kind, parent_tx, .. } => (*parent_kind, *parent_tx),
        };
        Some(CausalEnvelope {
            to: meta.to,
            kind: meta.kind,
            tx: meta.tx,
            dests,
            parent_kind,
            parent_tx,
        })
    }

    /// Bounded mode only: drops the causal metadata of one message — the
    /// sharded engine's two extra pruning points, keeping a bounded
    /// shard's table O(in-flight) even though RESP-time pruning only ever
    /// fires on the invoking client's shard:
    ///
    /// * a send whose message **departed** to another shard (its envelope
    ///   was exported): it can never be the causal parent of a local send
    ///   — parents are assigned while handling a delivery, and this
    ///   message will be delivered (envelope re-imported) elsewhere;
    /// * a delivered message of a transaction **invoked on another
    ///   shard**, pruned *after* its handler's effects were applied (the
    ///   handler's own sends fold the chain first); no local RESP will
    ///   ever prune it, and only the invoker's shard derives read/round
    ///   aggregates from it.
    ///
    /// No-op on unbounded traces, which keep every meta for retrospective
    /// [`Trace::parent_of`] queries.
    pub fn prune_meta(&mut self, msg: MsgId) {
        if self.capacity.is_some() {
            self.send_meta.remove(&msg);
        }
    }

    /// Imports the causal metadata of a message sent by another trace, so
    /// that this trace can derive round depths and non-blocking verdicts
    /// for deliveries of (and sends caused by) `msg`.  In bounded mode the
    /// imported entry joins the same pruning regime as local sends: dropped
    /// at the attributed transaction's RESP, or at delivery for
    /// control/straggler traffic.
    pub fn import_envelope(&mut self, msg: MsgId, envelope: CausalEnvelope) {
        if self.capacity.is_some() {
            if let Some(tx) = envelope.tx {
                self.by_tx.entry(tx).or_default().msgs.push(msg);
            }
        }
        self.send_meta.insert(
            msg,
            SendMeta {
                to: envelope.to,
                kind: envelope.kind,
                tx: envelope.tx,
                origin: MetaOrigin::Imported {
                    dests: envelope.dests.into_boxed_slice(),
                    parent_kind: envelope.parent_kind,
                    parent_tx: envelope.parent_tx,
                },
            },
        );
    }

    /// The retained actions in order: the full log for an unbounded trace,
    /// the most recent window for a bounded one.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions recorded (including any evicted from a bounded
    /// trace's window).
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// Number of actions evicted from a bounded trace's window.
    pub fn evicted_len(&self) -> usize {
        self.base_seq as usize
    }

    /// Number of per-message causality entries currently held.  Unbounded
    /// traces keep one per send; bounded traces prune a transaction's
    /// entries at its RESP, so this tracks the in-flight population.
    pub fn causal_meta_len(&self) -> usize {
        self.send_meta.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// The retained actions occurring at one automaton, in order — the
    /// projection `trace(α)|p` the indistinguishability arguments use.
    pub fn at(&self, p: ProcessId) -> Vec<&Action> {
        self.by_proc
            .get(&p)
            .map(|seqs| seqs.iter().filter_map(|&s| self.action_at(s)).collect())
            .unwrap_or_default()
    }

    /// The retained actions attributable to one transaction, in order.
    pub fn of_tx(&self, tx: TxId) -> Vec<&Action> {
        self.by_tx
            .get(&tx)
            .map(|t| t.actions.iter().filter_map(|&s| self.action_at(s)).collect())
            .unwrap_or_default()
    }

    /// Finds the send action for a given message id — O(1).  `None` if the
    /// message is unknown or its send action was evicted.
    pub fn send_of(&self, msg: MsgId) -> Option<&Action> {
        self.send_seq.get(&msg).and_then(|&s| self.action_at(s))
    }

    /// Finds the receive action for a given message id — O(1).  `None` if
    /// the message is unknown or its receive action was evicted.
    pub fn recv_of(&self, msg: MsgId) -> Option<&Action> {
        self.recv_seq.get(&msg).and_then(|&s| self.action_at(s))
    }

    /// The causal parent of a message: the message whose handler sent it —
    /// O(1).  Parent links survive action eviction in unbounded traces;
    /// bounded traces forget them for completed transactions (pruned at
    /// RESP) and for delivered control/straggler messages (pruned at
    /// delivery).  Messages whose metadata was imported from another shard
    /// report no parent (the parent lives in the sending shard's trace).
    pub fn parent_of(&self, msg: MsgId) -> Option<MsgId> {
        match self.send_meta.get(&msg).map(|m| &m.origin) {
            Some(MetaOrigin::Local { parent }) => *parent,
            _ => None,
        }
    }

    /// Number of client-to-client messages attributed to `tx` — O(1).
    pub fn c2c_count(&self, tx: TxId) -> u32 {
        self.by_tx.get(&tx).map(|t| t.c2c_sends).unwrap_or(0)
    }

    /// The number of client↔server round trips transaction `tx` used,
    /// derived purely from causality: a send by the client whose parent
    /// chain passes through `d` prior server responses belongs to round
    /// `d + 1`.  O(1): depths are accumulated at record time.
    pub fn rounds_of(&self, tx: TxId, client: ProcessId) -> u32 {
        self.by_tx
            .get(&tx)
            .and_then(|t| {
                t.rounds_by_sender
                    .iter()
                    .find(|(sender, _)| *sender == client)
                    .map(|(_, depth)| *depth)
            })
            .unwrap_or(0)
    }

    /// Read-response instrumentation for `tx`: one [`ReadResult`] per
    /// response received by the invoking client, in receive order —
    /// O(answer).
    pub fn read_results(&self, tx: TxId) -> &[ReadResult] {
        self.by_tx
            .get(&tx)
            .map(|t| t.reads.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of transaction commits (RESP actions) ever recorded,
    /// including retired commit-log entries.
    pub fn commit_count(&self) -> u64 {
        self.commits_retired + self.commits.len() as u64
    }

    /// Number of commit-log entries retired by [`Trace::retire_commits`]
    /// — the commit number of the oldest live entry.
    pub fn retired_commits(&self) -> u64 {
        self.commits_retired
    }

    /// Iterates the live commit-log entries from commit number `cursor`
    /// on, in RESP order, without cloning anything — the incremental
    /// alternative to re-assembling a full history per checker poll.
    /// Already-retired entries are omitted (a `cursor` below
    /// [`Trace::retired_commits`] starts at the oldest live entry).
    /// O(entries yielded): the run loops' commit gate asks for the last
    /// one or two entries of an arbitrarily long log after every step.
    pub fn commits_since(&self, cursor: u64) -> impl Iterator<Item = TxId> + '_ {
        let skip = cursor.saturating_sub(self.commits_retired) as usize;
        self.commits.range(skip.min(self.commits.len())..).copied()
    }

    /// Retires every commit-log entry before commit number `up_to`,
    /// dropping their storage.  Callers that have drained a prefix via
    /// [`Trace::commits_since`] retire it here so the live log stays
    /// O(in-flight drain window) instead of O(transactions).
    pub fn retire_commits(&mut self, up_to: u64) {
        while self.commits_retired < up_to {
            if self.commits.pop_front().is_none() {
                break;
            }
            self.commits_retired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ClientId, ObjectId, ServerId};

    fn client(i: u32) -> ProcessId {
        ProcessId::Client(ClientId(i))
    }
    fn server(i: u32) -> ProcessId {
        ProcessId::Server(ServerId(i))
    }

    /// Builds a small two-round trace:
    ///  c0: INV(tx1), send m0 -> s0 (round 1)
    ///  s0: recv m0, send m1 -> c0
    ///  c0: recv m1, send m2 -> s1 (round 2, parent m1)
    ///  s1: recv m2, send m3 -> c0
    ///  c0: recv m3, RESP(tx1)
    fn two_round_trace() -> Trace {
        let tx = TxId(1);
        let mut t = Trace::new();
        t.record(0, client(0), ActionKind::Invoke { tx, kind: TxKind::Read });
        t.record(
            1,
            client(0),
            ActionKind::Send {
                msg: MsgId(0),
                to: server(0),
                parent: None,
                info: MsgInfo::read_request(tx, Some(ObjectId(0))),
            },
        );
        t.record(
            2,
            server(0),
            ActionKind::Recv {
                msg: MsgId(0),
                from: client(0),
                info: MsgInfo::read_request(tx, Some(ObjectId(0))),
            },
        );
        t.record(
            3,
            server(0),
            ActionKind::Send {
                msg: MsgId(1),
                to: client(0),
                parent: Some(MsgId(0)),
                info: MsgInfo::read_response(tx, Some(ObjectId(0)), 1),
            },
        );
        t.record(
            4,
            client(0),
            ActionKind::Recv {
                msg: MsgId(1),
                from: server(0),
                info: MsgInfo::read_response(tx, Some(ObjectId(0)), 1),
            },
        );
        t.record(
            5,
            client(0),
            ActionKind::Send {
                msg: MsgId(2),
                to: server(1),
                parent: Some(MsgId(1)),
                info: MsgInfo::read_request(tx, Some(ObjectId(1))),
            },
        );
        t.record(
            6,
            server(1),
            ActionKind::Recv {
                msg: MsgId(2),
                from: client(0),
                info: MsgInfo::read_request(tx, Some(ObjectId(1))),
            },
        );
        t.record(
            7,
            server(1),
            ActionKind::Send {
                msg: MsgId(3),
                to: client(0),
                parent: Some(MsgId(2)),
                info: MsgInfo::read_response(tx, Some(ObjectId(1)), 1),
            },
        );
        t.record(
            8,
            client(0),
            ActionKind::Recv {
                msg: MsgId(3),
                from: server(1),
                info: MsgInfo::read_response(tx, Some(ObjectId(1)), 1),
            },
        );
        t.record(9, client(0), ActionKind::Respond { tx });
        t
    }

    #[test]
    fn projections_and_lookup() {
        let t = two_round_trace();
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
        assert_eq!(t.at(client(0)).len(), 6);
        assert_eq!(t.at(server(0)).len(), 2);
        assert_eq!(t.of_tx(TxId(1)).len(), 10);
        assert_eq!(t.of_tx(TxId(9)).len(), 0);
        assert!(t.send_of(MsgId(2)).is_some());
        assert!(t.recv_of(MsgId(3)).is_some());
        assert_eq!(t.parent_of(MsgId(2)), Some(MsgId(1)));
        assert_eq!(t.parent_of(MsgId(0)), None);
    }

    #[test]
    fn projections_preserve_action_order() {
        let t = two_round_trace();
        let seqs: Vec<u64> = t.at(client(0)).iter().map(|a| a.seq).collect();
        assert_eq!(seqs, vec![0, 1, 4, 5, 8, 9]);
        let tx_seqs: Vec<u64> = t.of_tx(TxId(1)).iter().map(|a| a.seq).collect();
        assert_eq!(tx_seqs, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn round_counting_follows_causality() {
        let t = two_round_trace();
        // m0 is round 1; m2's parent chain passes through m1 (a response to
        // the client), so it is round 2.
        assert_eq!(t.rounds_of(TxId(1), client(0)), 2);
        assert_eq!(t.rounds_of(TxId(9), client(0)), 0);
        // Server sends count rounds relative to themselves: m1's parent m0
        // was addressed to s0, so s0's send depth is 2 (same as the
        // historical scan-based computation).
        assert_eq!(t.rounds_of(TxId(1), server(0)), 2);
    }

    #[test]
    fn c2c_counting() {
        let mut t = two_round_trace();
        assert_eq!(t.c2c_count(TxId(1)), 0);
        t.record(
            10,
            client(1),
            ActionKind::Send {
                msg: MsgId(4),
                to: client(0),
                parent: None,
                info: MsgInfo::client_to_client(Some(TxId(1))),
            },
        );
        assert_eq!(t.c2c_count(TxId(1)), 1);
    }

    #[test]
    fn read_results_accumulate_at_the_invoker() {
        let t = two_round_trace();
        let reads = t.read_results(TxId(1));
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].object, ObjectId(0));
        assert_eq!(reads[0].server, ServerId(0));
        assert!(reads[0].nonblocking, "parent is the read request itself");
        assert_eq!(reads[1].object, ObjectId(1));
        assert_eq!(reads[1].server, ServerId(1));
        assert_eq!(reads[1].versions_in_response, 1);
        assert!(t.read_results(TxId(9)).is_empty());
    }

    #[test]
    fn action_tx_attribution() {
        let t = two_round_trace();
        assert_eq!(t.actions()[0].tx(), Some(TxId(1)));
        assert_eq!(t.actions()[9].tx(), Some(TxId(1)));
    }

    /// Replays `n` copies of the two-round transaction pattern into `t`,
    /// with distinct tx and message ids per copy.
    fn replay_pattern(t: &mut Trace, n: u64) {
        for i in 0..n {
            let tx = TxId(i);
            let m = |k: u64| MsgId(i * 4 + k);
            let base = i * 10;
            t.record(base, client(0), ActionKind::Invoke { tx, kind: TxKind::Read });
            t.record(
                base + 1,
                client(0),
                ActionKind::Send {
                    msg: m(0),
                    to: server(0),
                    parent: None,
                    info: MsgInfo::read_request(tx, Some(ObjectId(0))),
                },
            );
            t.record(
                base + 2,
                server(0),
                ActionKind::Recv {
                    msg: m(0),
                    from: client(0),
                    info: MsgInfo::read_request(tx, Some(ObjectId(0))),
                },
            );
            t.record(
                base + 3,
                server(0),
                ActionKind::Send {
                    msg: m(1),
                    to: client(0),
                    parent: Some(m(0)),
                    info: MsgInfo::read_response(tx, Some(ObjectId(0)), 1),
                },
            );
            t.record(
                base + 4,
                client(0),
                ActionKind::Recv {
                    msg: m(1),
                    from: server(0),
                    info: MsgInfo::read_response(tx, Some(ObjectId(0)), 1),
                },
            );
            t.record(
                base + 5,
                client(0),
                ActionKind::Send {
                    msg: m(2),
                    to: server(1),
                    parent: Some(m(1)),
                    info: MsgInfo::read_request(tx, Some(ObjectId(1))),
                },
            );
            t.record(
                base + 6,
                server(1),
                ActionKind::Recv {
                    msg: m(2),
                    from: client(0),
                    info: MsgInfo::read_request(tx, Some(ObjectId(1))),
                },
            );
            t.record(
                base + 7,
                server(1),
                ActionKind::Send {
                    msg: m(3),
                    to: client(0),
                    parent: Some(m(2)),
                    info: MsgInfo::read_response(tx, Some(ObjectId(1)), 2),
                },
            );
            t.record(
                base + 8,
                client(0),
                ActionKind::Recv {
                    msg: m(3),
                    from: server(1),
                    info: MsgInfo::read_response(tx, Some(ObjectId(1)), 2),
                },
            );
            t.record(base + 9, client(0), ActionKind::Respond { tx });
        }
    }

    #[test]
    fn bounded_trace_aggregates_match_unbounded() {
        let mut full = Trace::new();
        let mut bounded = Trace::with_action_capacity(8);
        replay_pattern(&mut full, 20);
        replay_pattern(&mut bounded, 20);

        assert_eq!(bounded.action_capacity(), Some(8));
        assert_eq!(full.action_capacity(), None);
        assert_eq!(full.len(), 200);
        assert_eq!(bounded.len(), 200, "len counts recorded, not retained");
        assert!(bounded.actions().len() <= 16, "window is at most 2×capacity");
        assert!(bounded.actions().len() >= 8, "window keeps the newest capacity");
        assert!(bounded.evicted_len() >= 184);
        assert_eq!(full.evicted_len(), 0);

        // Every per-transaction aggregate is identical, including for
        // transactions whose actions were all evicted long ago.
        for i in 0..20u64 {
            let tx = TxId(i);
            assert_eq!(full.rounds_of(tx, client(0)), 2);
            assert_eq!(
                bounded.rounds_of(tx, client(0)),
                full.rounds_of(tx, client(0)),
                "tx {i}"
            );
            assert_eq!(bounded.c2c_count(tx), full.c2c_count(tx), "tx {i}");
            assert_eq!(bounded.read_results(tx), full.read_results(tx), "tx {i}");
            assert_eq!(bounded.read_results(tx).len(), 2);
            assert!(bounded.read_results(tx).iter().all(|r| r.nonblocking));
        }
        // The causality side table is pruned at RESP in bounded mode: every
        // transaction in this trace completed, so nothing remains, while
        // the unbounded trace keeps one entry per send.
        assert_eq!(bounded.causal_meta_len(), 0, "all transactions responded");
        assert_eq!(full.causal_meta_len(), 80, "4 sends per transaction");
        assert_eq!(full.parent_of(MsgId(2)), Some(MsgId(1)));
        assert_eq!(bounded.parent_of(MsgId(2)), None, "pruned at RESP");
        assert!(bounded.send_of(MsgId(0)).is_none(), "evicted send forgotten");
        assert!(full.send_of(MsgId(0)).is_some());
        // Retained projections only contain window actions.
        let retained_seqs: Vec<u64> = bounded.at(client(0)).iter().map(|a| a.seq).collect();
        assert!(retained_seqs.iter().all(|s| *s >= bounded.evicted_len() as u64));
        assert!(!retained_seqs.is_empty());
    }

    #[test]
    fn envelopes_carry_causality_across_traces() {
        // Two shards: the client lives in trace `a`, the server in `b`.
        // The round/non-blocking instrumentation derived at the client must
        // match what a single trace holding both processes would compute.
        let tx = TxId(1);
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.record(0, client(0), ActionKind::Invoke { tx, kind: TxKind::Read });
        let req_info = MsgInfo::read_request(tx, Some(ObjectId(0)));
        a.record(
            1,
            client(0),
            ActionKind::Send { msg: MsgId(0), to: server(0), parent: None, info: req_info },
        );
        // Request crosses a → b.
        let env = a.export_envelope(MsgId(0)).expect("request meta recorded");
        assert_eq!(env.dests, vec![(server(0), 1)]);
        b.import_envelope(MsgId(0), env);
        b.record(
            2,
            server(0),
            ActionKind::Recv { msg: MsgId(0), from: client(0), info: req_info },
        );
        let resp_info = MsgInfo::read_response(tx, Some(ObjectId(0)), 1);
        b.record(
            3,
            server(0),
            ActionKind::Send {
                msg: MsgId(1),
                to: client(0),
                parent: Some(MsgId(0)),
                info: resp_info,
            },
        );
        // The server's own depth folds the imported request chain.
        assert_eq!(b.rounds_of(tx, server(0)), 2);
        // Response crosses b → a.
        let env = b.export_envelope(MsgId(1)).expect("response meta recorded");
        assert_eq!(env.parent_kind, Some(MsgKind::ReadRequest));
        assert_eq!(env.parent_tx, Some(tx));
        let mut dests = env.dests.clone();
        dests.sort();
        assert_eq!(dests, vec![(client(0), 1), (server(0), 1)]);
        a.import_envelope(MsgId(1), env);
        a.record(
            4,
            client(0),
            ActionKind::Recv { msg: MsgId(1), from: server(0), info: resp_info },
        );
        // Imported metadata reports no locally walkable parent…
        assert_eq!(a.parent_of(MsgId(1)), None);
        // …but the non-blocking verdict still sees the cross-shard parent.
        let reads = a.read_results(tx);
        assert_eq!(reads.len(), 1);
        assert!(reads[0].nonblocking, "parent was the read request itself");
        // A second-round send at the client counts the imported response.
        a.record(
            5,
            client(0),
            ActionKind::Send {
                msg: MsgId(2),
                to: server(1),
                parent: Some(MsgId(1)),
                info: MsgInfo::read_request(tx, Some(ObjectId(1))),
            },
        );
        assert_eq!(a.rounds_of(tx, client(0)), 2);
    }

    #[test]
    fn bounded_trace_keeps_causality_until_resp() {
        let tx = TxId(1);
        let mut t = Trace::with_action_capacity(64);
        t.record(0, client(0), ActionKind::Invoke { tx, kind: TxKind::Read });
        t.record(
            1,
            client(0),
            ActionKind::Send {
                msg: MsgId(0),
                to: server(0),
                parent: None,
                info: MsgInfo::read_request(tx, Some(ObjectId(0))),
            },
        );
        t.record(
            2,
            server(0),
            ActionKind::Send {
                msg: MsgId(1),
                to: client(0),
                parent: Some(MsgId(0)),
                info: MsgInfo::read_response(tx, Some(ObjectId(0)), 1),
            },
        );
        // While the transaction is in flight, causality is queryable.
        assert_eq!(t.causal_meta_len(), 2);
        assert_eq!(t.parent_of(MsgId(1)), Some(MsgId(0)));
        t.record(3, client(0), ActionKind::Respond { tx });
        // At RESP the side table is emptied; aggregates are untouched.
        assert_eq!(t.causal_meta_len(), 0);
        assert_eq!(t.parent_of(MsgId(1)), None);
        assert_eq!(t.rounds_of(tx, client(0)), 1);
    }

    #[test]
    fn commit_log_iterates_and_retires_in_resp_order() {
        let mut t = Trace::with_action_capacity(8);
        replay_pattern(&mut t, 20);
        assert_eq!(t.commit_count(), 20);
        assert_eq!(t.retired_commits(), 0);
        // The log is in RESP order even though the action window evicted
        // almost everything.
        let all: Vec<TxId> = t.commits_since(0).collect();
        assert_eq!(all, (0..20).map(TxId).collect::<Vec<_>>());
        // A cursor resumes mid-log without re-yielding drained entries.
        let tail: Vec<TxId> = t.commits_since(17).collect();
        assert_eq!(tail, vec![TxId(17), TxId(18), TxId(19)]);
        // Retiring a prefix drops its storage but not the numbering.
        t.retire_commits(17);
        assert_eq!(t.retired_commits(), 17);
        assert_eq!(t.commit_count(), 20);
        assert_eq!(t.commits_since(17).collect::<Vec<_>>(), tail);
        // A stale cursor starts at the oldest live entry; retiring past
        // the end is clamped.
        assert_eq!(t.commits_since(0).count(), 3);
        t.retire_commits(100);
        assert_eq!(t.retired_commits(), 20);
        assert_eq!(t.commits_since(0).count(), 0);
    }
}
