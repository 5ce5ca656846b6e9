//! A blocking, lock-based strictly serializable baseline.
//!
//! This is the "other corner" of the SNOW trade-off: it keeps the strongest
//! guarantees (S and W) by using strict two-phase locking with a global lock
//! acquisition order (objects are locked in increasing id order, one at a
//! time, which rules out deadlock), and pays for them with reads that
//! **block** behind conflicting writes (violating N) and take as many rounds
//! as objects they touch (violating O).  The benchmarks use it to show the
//! latency gap the SNOW algorithms close.

use crate::common::{KeyAllocator, PendingWrite};
use crate::AnyMsg;
use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ProcessId, ReadOutcome, Result, ServerId, ShardStore,
    SnowError, SystemConfig, TxId, TxOutcome, TxSpec, Value, WriteOutcome, WritePairs,
};
use snow_core::{Effects, MsgInfo, ProtocolMessage};
use std::collections::{BTreeMap, VecDeque};

/// Messages exchanged by the blocking 2PL protocol.
#[derive(Debug, Clone)]
pub enum BlockingMsg {
    /// Lock request (read or write mode): client → server.
    LockReq {
        /// Transaction id.
        tx: TxId,
        /// Object to lock.
        object: ObjectId,
        /// `true` for a write (exclusive) lock.
        write: bool,
    },
    /// Lock grant: server → client.  For read locks the latest committed
    /// value is piggy-backed so the read needs no extra round.
    LockGranted {
        /// Transaction id.
        tx: TxId,
        /// Locked object.
        object: ObjectId,
        /// `true` if the granted lock is exclusive.
        write: bool,
        /// Version key of the piggy-backed value.
        key: Key,
        /// Latest committed value of the object.
        value: Value,
    },
    /// Write installation (sent once all locks are held): writer → server.
    WriteVal {
        /// Transaction id.
        tx: TxId,
        /// Object to update.
        object: ObjectId,
        /// Version key.
        key: Key,
        /// New value.
        value: Value,
    },
    /// Write acknowledgement: server → writer.
    WriteAck {
        /// Transaction id.
        tx: TxId,
        /// Acked object.
        object: ObjectId,
    },
    /// Lock release (fire-and-forget): client → server.
    Unlock {
        /// Transaction id.
        tx: TxId,
        /// Object to unlock.
        object: ObjectId,
    },
}

impl ProtocolMessage for BlockingMsg {
    #[inline]
    fn info(&self) -> MsgInfo {
        match self {
            BlockingMsg::LockReq { tx, object, write } => {
                if *write {
                    MsgInfo::write_request(*tx, Some(*object))
                } else {
                    MsgInfo::read_request(*tx, Some(*object))
                }
            }
            BlockingMsg::LockGranted {
                tx, object, write, ..
            } => {
                if *write {
                    MsgInfo::write_ack(*tx, Some(*object))
                } else {
                    MsgInfo::read_response(*tx, Some(*object), 1)
                }
            }
            BlockingMsg::WriteVal { tx, object, .. } => MsgInfo::write_request(*tx, Some(*object)),
            BlockingMsg::WriteAck { tx, object } => MsgInfo::write_ack(*tx, Some(*object)),
            BlockingMsg::Unlock { .. } => MsgInfo::control(),
        }
    }
}

/// One object's lock state on a server.
#[derive(Debug, Default)]
struct LockState {
    read_holders: Vec<(ProcessId, TxId)>,
    write_holder: Option<(ProcessId, TxId)>,
    waiters: VecDeque<(ProcessId, TxId, bool)>,
}

impl LockState {
    fn can_grant(&self, write: bool) -> bool {
        if write {
            self.write_holder.is_none() && self.read_holders.is_empty()
        } else {
            self.write_holder.is_none()
        }
    }
}

/// In-flight client transaction state.
#[derive(Debug)]
struct PendingBlocking {
    tx: TxId,
    /// Objects still to lock, in ascending order.
    to_lock: VecDeque<ObjectId>,
    /// Objects locked so far.
    locked: Vec<ObjectId>,
    /// For reads: the values piggy-backed on the grants.
    reads: Vec<ObjectRead>,
    /// For writes: the values to install once all locks are held.
    writes: WritePairs,
    /// For writes: the version key and the install acks still outstanding.
    write: Option<PendingWrite>,
}

/// A client of the blocking protocol (plays reader or writer depending on the
/// transactions it is given, mirroring the single-role model of the paper).
#[derive(Debug)]
pub struct BlockingClient {
    id: ClientId,
    config: SystemConfig,
    keys: KeyAllocator,
    pending: Option<PendingBlocking>,
}

impl BlockingClient {
    /// Creates a client.
    pub fn new(id: ClientId, config: SystemConfig) -> Self {
        BlockingClient {
            id,
            config,
            keys: KeyAllocator::new(id),
            pending: None,
        }
    }

    fn lock_next(&mut self, effects: &mut Effects<AnyMsg>) {
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if let Some(object) = p.to_lock.front().copied() {
            let server = self.config.server_for(object);
            effects.send(
                ProcessId::Server(server),
                BlockingMsg::LockReq {
                    tx: p.tx,
                    object,
                    write: p.write.is_some(),
                },
            );
        }
    }

    fn release_all(&self, p: &PendingBlocking, effects: &mut Effects<AnyMsg>) {
        for object in &p.locked {
            let server = self.config.server_for(*object);
            effects.send(
                ProcessId::Server(server),
                BlockingMsg::Unlock {
                    tx: p.tx,
                    object: *object,
                },
            );
        }
    }
}

/// A storage server of the blocking protocol.
#[derive(Debug)]
pub struct BlockingServer {
    id: ServerId,
    store: ShardStore,
    locks: BTreeMap<ObjectId, LockState>,
}

impl BlockingServer {
    /// Creates a server hosting the objects placed on it by `config`.
    pub fn new(id: ServerId, config: &SystemConfig) -> Self {
        let objects = config.objects_on(id);
        BlockingServer {
            id,
            store: ShardStore::new(objects.clone(), config.num_clients()),
            locks: objects.into_iter().map(|o| (o, LockState::default())).collect(),
        }
    }

    fn grant(
        &mut self,
        to: ProcessId,
        tx: TxId,
        object: ObjectId,
        write: bool,
        effects: &mut Effects<AnyMsg>,
    ) {
        let state = self.locks.entry(object).or_default();
        if write {
            state.write_holder = Some((to, tx));
        } else {
            state.read_holders.push((to, tx));
        }
        let latest = self.store.object(object).expect("object hosted");
        effects.send(
            to,
            BlockingMsg::LockGranted {
                tx,
                object,
                write,
                key: latest.latest_key(),
                value: latest.latest_value(),
            },
        );
    }

    fn release_and_grant_waiters(
        &mut self,
        tx: TxId,
        object: ObjectId,
        effects: &mut Effects<AnyMsg>,
    ) {
        {
            let state = self.locks.entry(object).or_default();
            state.read_holders.retain(|(_, t)| *t != tx);
            if state.write_holder.map(|(_, t)| t == tx).unwrap_or(false) {
                state.write_holder = None;
            }
        }
        // Grant as many waiters as compatibility allows, in FIFO order.
        loop {
            let next = {
                let state = self.locks.entry(object).or_default();
                match state.waiters.front().copied() {
                    Some((who, wtx, write)) if state.can_grant(write) => {
                        state.waiters.pop_front();
                        Some((who, wtx, write))
                    }
                    _ => None,
                }
            };
            match next {
                Some((who, wtx, write)) => {
                    self.grant(who, wtx, object, write, effects);
                    if write {
                        break;
                    }
                }
                None => break,
            }
        }
    }
}

/// A process of a blocking-2PL deployment.
#[derive(Debug)]
pub enum BlockingNode {
    /// A client.
    Client(BlockingClient),
    /// A storage server.
    Server(BlockingServer),
}

impl BlockingNode {
    /// The identity of this process.
    pub(crate) fn id(&self) -> ProcessId {
        match self {
            BlockingNode::Client(c) => ProcessId::Client(c.id),
            BlockingNode::Server(s) => ProcessId::Server(s.id),
        }
    }

    /// The INV handler, run by `AnyNode`.
    pub(crate) fn handle_invoke(
        &mut self,
        tx_id: TxId,
        spec: TxSpec,
        effects: &mut Effects<AnyMsg>,
    ) {
        let BlockingNode::Client(client) = self else {
            panic!("servers do not accept invocations");
        };
        assert!(client.pending.is_none(), "client invoked while a transaction is outstanding");
        let (mut to_lock, writes, write): (VecDeque<ObjectId>, _, _) = match spec {
            TxSpec::Read(r) => (r.objects.iter().copied().collect(), WritePairs::new(), None),
            TxSpec::Write(w) => {
                let acks = PendingWrite::new(tx_id, client.keys.allocate(), w.objects());
                (w.objects().iter().copied().collect(), w.writes, Some(acks))
            }
        };
        to_lock.make_contiguous().sort();
        client.pending = Some(PendingBlocking {
            tx: tx_id,
            to_lock,
            locked: Vec::new(),
            reads: Vec::new(),
            writes,
            write,
        });
        client.lock_next(effects);
    }

    /// The delivery handler, run by `AnyNode`.
    pub(crate) fn handle_message(
        &mut self,
        from: ProcessId,
        msg: BlockingMsg,
        effects: &mut Effects<AnyMsg>,
    ) {
        match self {
            BlockingNode::Server(server) => match msg {
                BlockingMsg::LockReq { tx, object, write } => {
                    let state = server.locks.entry(object).or_default();
                    if state.can_grant(write) && state.waiters.is_empty() {
                        server.grant(from, tx, object, write, effects);
                    } else {
                        state.waiters.push_back((from, tx, write));
                    }
                }
                BlockingMsg::WriteVal {
                    tx,
                    object,
                    key,
                    value,
                } => {
                    server.store.install(object, key, value);
                    effects.send(from, BlockingMsg::WriteAck { tx, object });
                }
                BlockingMsg::Unlock { tx, object } => {
                    server.release_and_grant_waiters(tx, object, effects);
                }
                other => panic!("server received unexpected message {other:?}"),
            },
            BlockingNode::Client(client) => match msg {
                BlockingMsg::LockGranted {
                    tx,
                    object,
                    write: _,
                    key,
                    value,
                } => {
                    let Some(p) = client.pending.as_mut() else {
                        return;
                    };
                    if p.tx != tx {
                        return;
                    }
                    p.to_lock.retain(|o| *o != object);
                    p.locked.push(object);
                    if p.write.is_none() {
                        p.reads.push(ObjectRead { object, key, value });
                    }
                    if !p.to_lock.is_empty() {
                        client.lock_next(effects);
                        return;
                    }
                    // All locks held.
                    if let Some(write) = &p.write {
                        let key = write.key;
                        for &(object, value) in &p.writes {
                            let server = client.config.server_for(object);
                            effects.send(
                                ProcessId::Server(server),
                                BlockingMsg::WriteVal {
                                    tx,
                                    object,
                                    key,
                                    value,
                                },
                            );
                        }
                    } else {
                        let p = client.pending.take().expect("pending transaction");
                        client.release_all(&p, effects);
                        let mut reads = p.reads;
                        reads.sort_by_key(|r| r.object);
                        effects.respond(
                            p.tx,
                            TxOutcome::Read(ReadOutcome { reads, tag: None }),
                        );
                    }
                }
                BlockingMsg::WriteAck { tx, object } => {
                    let acked = |p: &mut PendingBlocking| {
                        p.tx == tx && p.write.as_mut().is_some_and(|w| w.ack(object))
                    };
                    if let Some(p) = client.pending.take_if(acked) {
                        client.release_all(&p, effects);
                        let key = p.write.expect("an acked WRITE").key;
                        effects.respond(tx, TxOutcome::Write(WriteOutcome { key, tag: None }));
                    }
                }
                other => panic!("client received unexpected message {other:?}"),
            },
        }
    }

    /// Drops a client's in-flight state for the aborted `tx_id`.
    ///
    /// Locks the aborted transaction already holds at live servers are
    /// deliberately *not* released: the client cannot send from this hook,
    /// and leaked locks are exactly the blocking-protocol failure mode the
    /// fault scenarios are meant to surface.
    pub(crate) fn abort(&mut self, tx_id: TxId) {
        if let BlockingNode::Client(client) = self {
            drop(client.pending.take_if(|p| p.tx == tx_id));
        }
    }
}

/// Builds a blocking-2PL deployment for `config`.  Every client (reader or
/// writer) is a [`BlockingClient`]; the role split is enforced by the
/// transactions the harness feeds it.
pub fn deploy(config: &SystemConfig) -> Result<Vec<BlockingNode>> {
    config.validate().map_err(SnowError::InvalidConfig)?;
    let mut nodes = Vec::new();
    for c in config.readers().chain(config.writers()) {
        nodes.push(BlockingNode::Client(BlockingClient::new(c, config.clone())));
    }
    for s in config.servers() {
        nodes.push(BlockingNode::Server(BlockingServer::new(s, config)));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::tests::simulation;
    use crate::ProtocolKind;
    use snow_sim::{LatencyScheduler, RandomScheduler, StepOutcome};

    #[test]
    fn read_after_write_sees_values_and_uses_many_rounds() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Blocking, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = sim.invoke_at(
            0,
            writer,
            TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]),
        );
        assert!(sim.run_until_complete(w));
        let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        let outcome = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(1)));
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value(2)));
        // Sequential lock acquisition: one round per object.
        assert_eq!(read.rounds, 2);
    }

    #[test]
    fn read_blocks_behind_an_uncommitted_write() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Blocking, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();

        let w = sim.invoke_at(0, writer, TxSpec::write(vec![(ObjectId(0), Value(9))]));
        let r = sim.invoke_at(0, reader, TxSpec::read(vec![ObjectId(0)]));
        // Dispatch both invocations, then let the writer's lock request win.
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::Blocking(BlockingMsg::LockReq { write: true, .. })))
            .is_some());
        // Now the reader's lock request arrives while the write lock is held:
        // the server parks it.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::Blocking(BlockingMsg::LockReq { write: false, .. })))
            .is_some());
        sim.run_until_quiescent();
        assert!(sim.is_complete(w));
        assert!(sim.is_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        // The read was answered only after the write released its lock: the
        // trace-derived non-blocking flag must be false, and the value is the
        // freshly committed one.
        assert!(!read.all_reads_nonblocking());
        let outcome = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(9)));
    }

    #[test]
    fn concurrent_transactions_complete_without_deadlock() {
        let config = SystemConfig::mwmr(3, 2, 2);
        let readers: Vec<_> = config.readers().collect();
        let writers: Vec<_> = config.writers().collect();
        for seed in 0..10u64 {
            let mut sim = simulation(ProtocolKind::Blocking, &config, RandomScheduler::new(seed));
            let txs = vec![
                sim.invoke_at(
                    0,
                    writers[0],
                    TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]),
                ),
                sim.invoke_at(
                    0,
                    writers[1],
                    TxSpec::write(vec![(ObjectId(1), Value(3)), (ObjectId(2), Value(4))]),
                ),
                sim.invoke_at(0, readers[0], TxSpec::read(vec![ObjectId(0), ObjectId(1), ObjectId(2)])),
                sim.invoke_at(0, readers[1], TxSpec::read(vec![ObjectId(1), ObjectId(2)])),
            ];
            sim.run_until_quiescent();
            for tx in &txs {
                assert!(sim.is_complete(*tx), "seed {seed}: {tx} incomplete (deadlock?)");
            }
        }
    }

    #[test]
    fn sequential_writes_are_visible_in_order() {
        let config = SystemConfig::mwmr(1, 1, 1);
        let mut sim = simulation(ProtocolKind::Blocking, &config, RandomScheduler::new(3));
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        for i in 1..=3u64 {
            let w = sim.invoke_now(writer, TxSpec::write(vec![(ObjectId(0), Value(i))]));
            assert!(sim.run_until_complete(w));
            let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0)]));
            assert!(sim.run_until_complete(r));
            let h = sim.history();
            let out = h.get(r).unwrap().outcome.as_ref().unwrap().as_read().unwrap().clone();
            assert_eq!(out.value_for(ObjectId(0)), Some(Value(i)));
        }
    }
}
