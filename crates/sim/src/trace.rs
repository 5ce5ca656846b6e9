//! The causal ledger: what the substrate derives from an execution's
//! external actions.
//!
//! The paper's executions `σ₀, a₁, σ₁, …` are sequences of four external
//! actions — INV, RESP, send, recv ([`ActionKind`]).  The engine reports
//! each one to [`Trace::record`], which keeps **no log of them** — the
//! per-action log of a run is the `snow_obs` event stream (attach a
//! [`snow_obs::RecordingSink`]) — and folds them into what a
//! [`snow_core::History`] needs, so [`crate::Simulation::history`] is one
//! pass over the transaction records:
//!
//! * per transaction, C2C sends, the causal round depth per sender, and the
//!   [`ReadResult`] instrumentation of the read responses its invoking
//!   client received (so the `Invoke` must be recorded before the
//!   transaction's messages — always true for engine-driven traces);
//! * the commit log, transactions in RESP order;
//! * one compact `SendMeta` per message still able to matter: its
//!   destination, classification and causal parent.
//!
//! # Instrumentation is final at RESP
//!
//! A client's causal parent chains never leave its own transaction, and a
//! read response's non-blocking verdict inspects only its immediate parent,
//! recorded before the RESP.  So at RESP a transaction's aggregates are
//! final: its `SendMeta` entries are dropped, a straggler delivered later
//! (a duplicate, a slow replica) is not instrumentation, and the table
//! stays O(in-flight).  What no RESP will prune is dropped where it stops
//! mattering: unattributable and post-RESP traffic at delivery, and — on
//! the sharded engine, via [`Trace::prune_meta`] — a message that left for
//! another shard or belongs to a transaction invoked on one.

use crate::message::{MsgId, MsgInfo, MsgKind};
use snow_core::{ProcessId, ReadResult, TxId, TxKind};
use snow_core::FxHashMap;
use std::collections::VecDeque;

/// The kind of an externally visible action: [`Trace::record`]'s input
/// vocabulary.
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

/// Per-transaction incrementally maintained statistics.
#[derive(Debug, Clone, Default)]
struct TxIndex {
    /// The process at which the transaction's INV occurred.
    invoker: Option<ProcessId>,
    /// Client-to-client sends attributed to this transaction.
    c2c_sends: u32,
    /// Max causal round depth per sending process (tiny: one client plus,
    /// rarely, helpers).
    rounds_by_sender: Vec<(ProcessId, u32)>,
    /// Read-response instrumentation, in receive order at the invoker.
    reads: Vec<ReadResult>,
    /// Message ids sent on behalf of this transaction, so their
    /// [`SendMeta`] entries can be dropped at RESP.
    msgs: Vec<MsgId>,
    /// True once the transaction's RESP was recorded.
    responded: bool,
}

/// Compact record-time metadata of one send: everything the causal
/// derivations (round depth, non-blocking verdict) need.
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

/// The causal ledger of one execution (see the module docs): per-transaction
/// aggregates, the commit log, and the causality table of in-flight
/// messages.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Total number of actions ever recorded.
    recorded: u64,
    /// `MsgId → send metadata`, for messages that can still matter.
    send_meta: FxHashMap<MsgId, SendMeta>,
    /// Per-transaction statistics.
    by_tx: FxHashMap<TxId, TxIndex>,
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
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Folds one external action, occurring at automaton `at` at simulation
    /// time `time`, into the ledger.
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
        self.recorded += 1;
        match kind {
            ActionKind::Invoke { tx, .. } => {
                self.by_tx.entry(tx).or_default().invoker = Some(at);
            }
            ActionKind::Respond { tx } => {
                self.commits.push_back(tx);
                // The transaction is over: its causal metadata can no
                // longer influence any aggregate its invoker cares about.
                if let Some(index) = self.by_tx.get_mut(&tx) {
                    index.responded = true;
                    for msg in std::mem::take(&mut index.msgs) {
                        self.send_meta.remove(&msg);
                    }
                }
            }
            ActionKind::Send { msg, to, parent, info } => {
                self.send_meta.insert(
                    msg,
                    SendMeta {
                        to,
                        kind: info.kind,
                        tx: info.tx,
                        origin: MetaOrigin::Local { parent },
                    },
                );
                let Some(tx) = info.tx else { return };
                // Round depth of this send relative to its sender: 1 plus
                // the number of parent-chain hops that were sends *to* the
                // sender (i.e. responses it was handling).  Parents are
                // always recorded before children, so each hop is an O(1)
                // table lookup and chains are as short as the round count.
                let depth = self.chain_depth(at, parent);
                let entry = self.by_tx.entry(tx).or_default();
                entry.msgs.push(msg);
                if info.kind == MsgKind::ClientToClient {
                    entry.c2c_sends += 1;
                    return;
                }
                match entry.rounds_by_sender.iter_mut().find(|(sender, _)| *sender == at) {
                    Some((_, max)) => *max = (*max).max(depth),
                    None => entry.rounds_by_sender.push((at, depth)),
                }
            }
            ActionKind::Recv { msg, from, info } => {
                self.index_read_response(at, msg, from, &info);
                // A delivered message no future RESP will prune —
                // unattributable control traffic, or a straggler of an
                // already-responded transaction — would leak its causal
                // metadata forever; drop it at delivery instead.  (Control
                // messages are addressed only to servers, so no consumed
                // aggregate walks through them.)
                let settled = match info.tx {
                    None => true,
                    Some(tx) => self.by_tx.get(&tx).is_some_and(|t| t.responded),
                };
                if settled {
                    self.send_meta.remove(&msg);
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
        // Only responses the invoking client receives before its RESP are
        // read instrumentation: the record is final at RESP.
        match self.by_tx.get(&tx) {
            Some(t) if t.invoker == Some(at) && !t.responded => {}
            _ => return,
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
    /// send's metadata is unknown (never recorded, or already pruned — the
    /// importing side then treats the message as causally opaque).
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

    /// Drops the causal metadata of one message — the engine's pruning
    /// points for messages no RESP recorded here will ever cover:
    ///
    /// * a send that was **dropped** by a fault, or whose message
    ///   **departed** to another shard (its envelope was exported): it can
    ///   never be the causal parent of a local send — parents are assigned
    ///   while handling a delivery, and this message will be delivered
    ///   (envelope re-imported) elsewhere, if at all;
    /// * a delivered message of a transaction **invoked on another
    ///   shard**, pruned *after* its handler's effects were applied (the
    ///   handler's own sends fold the chain first); only the invoker's
    ///   shard derives read/round aggregates from it.
    pub fn prune_meta(&mut self, msg: MsgId) {
        self.send_meta.remove(&msg);
    }

    /// Imports the causal metadata of a message sent by another trace, so
    /// that this trace can derive round depths and non-blocking verdicts
    /// for deliveries of (and sends caused by) `msg`.  The imported entry
    /// is pruned like a local send's: at the attributed transaction's
    /// RESP, or at delivery for control/straggler traffic.
    pub fn import_envelope(&mut self, msg: MsgId, envelope: CausalEnvelope) {
        if let Some(tx) = envelope.tx {
            self.by_tx.entry(tx).or_default().msgs.push(msg);
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

    /// Number of actions recorded.
    pub fn len(&self) -> usize {
        self.recorded as usize
    }

    /// Number of per-message causality entries currently held: a
    /// transaction's are dropped at its RESP, so this tracks the in-flight
    /// population and is 0 once a run is quiescent.
    pub fn causal_meta_len(&self) -> usize {
        self.send_meta.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// The causal parent of a message still in the table: the message whose
    /// handler sent it.  Messages whose metadata was imported from another
    /// shard report no parent (it lives in the sending shard's trace).
    fn parent_of(&self, msg: MsgId) -> Option<MsgId> {
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
    /// response the invoking client received before its RESP, in receive
    /// order — O(answer).
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
        let mut t = Trace::new();
        replay_pattern(&mut t, 20);
        assert_eq!(t.len(), 200);
        let read = |object, versions_in_response| ReadResult {
            object: ObjectId(object),
            server: ServerId(object),
            versions_in_response,
            nonblocking: true,
        };
        for i in 0..20u64 {
            let tx = TxId(i);
            assert_eq!(t.rounds_of(tx, client(0)), 2, "tx {i}");
            assert_eq!(t.c2c_count(tx), 0, "tx {i}");
            assert_eq!(t.read_results(tx), [read(0, 1), read(1, 2)], "tx {i}");
        }
        // The causality table is pruned at RESP: every transaction in this
        // trace completed, so nothing remains of its 4 sends per
        // transaction.
        assert_eq!(t.causal_meta_len(), 0, "all transactions responded");
        assert_eq!(t.parent_of(MsgId(2)), None, "pruned at RESP");
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
        // The response arriving after the RESP is a straggler, not
        // instrumentation: the record was final at RESP.
        let info = MsgInfo::read_response(tx, Some(ObjectId(0)), 1);
        t.record(4, client(0), ActionKind::Recv { msg: MsgId(1), from: server(0), info });
        assert!(t.read_results(tx).is_empty());
    }

    #[test]
    fn commit_log_iterates_and_retires_in_resp_order() {
        let mut t = Trace::new();
        replay_pattern(&mut t, 20);
        assert_eq!(t.commit_count(), 20);
        assert_eq!(t.retired_commits(), 0);
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
