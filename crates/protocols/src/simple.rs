//! Non-transactional simple reads and writes: the latency floor.
//!
//! The SNOW paper defines optimal READ-transaction latency as matching the
//! latency of *simple reads*: "complete in a single round trip of
//! non-blocking parallel requests to the shards that return only the
//! requested data" (§1).  This module implements exactly those simple
//! operations — each read/write request goes straight to the shard, which
//! answers immediately with its latest value — so the benchmarks have a
//! floor to compare Algorithms A/B/C and the baselines against.  Grouped
//! simple reads give **no** cross-shard consistency guarantee.

use crate::common::{KeyAllocator, PendingRead, PendingWrite};
use crate::AnyMsg;
use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ProcessId, Result, ServerId, ShardStore, SnowError,
    SystemConfig, TxId, TxOutcome, TxSpec, Value, WriteOutcome,
};
use snow_core::{Effects, MsgInfo, ProtocolMessage};

/// Messages exchanged by the simple (non-transactional) protocol.
#[derive(Debug, Clone)]
pub enum SimpleMsg {
    /// Read request: client → server.
    ReadReq {
        /// Grouping id (the "transaction" the harness uses to collect results).
        tx: TxId,
        /// Object to read.
        object: ObjectId,
    },
    /// Read response with the server's latest value.
    ReadResp {
        /// Grouping id.
        tx: TxId,
        /// Object read.
        object: ObjectId,
        /// Version key of the value.
        key: Key,
        /// The value.
        value: Value,
    },
    /// Write request: client → server.
    WriteReq {
        /// Grouping id.
        tx: TxId,
        /// Object to update.
        object: ObjectId,
        /// Version key.
        key: Key,
        /// New value.
        value: Value,
    },
    /// Write acknowledgement.
    WriteAck {
        /// Grouping id.
        tx: TxId,
        /// Acked object.
        object: ObjectId,
    },
}

impl ProtocolMessage for SimpleMsg {
    #[inline]
    fn info(&self) -> MsgInfo {
        match self {
            SimpleMsg::ReadReq { tx, object } => MsgInfo::read_request(*tx, Some(*object)),
            SimpleMsg::ReadResp { tx, object, .. } => MsgInfo::read_response(*tx, Some(*object), 1),
            SimpleMsg::WriteReq { tx, object, .. } => MsgInfo::write_request(*tx, Some(*object)),
            SimpleMsg::WriteAck { tx, object } => MsgInfo::write_ack(*tx, Some(*object)),
        }
    }
}

/// A client issuing simple reads and writes.
#[derive(Debug)]
pub struct SimpleClient {
    id: ClientId,
    config: SystemConfig,
    keys: KeyAllocator,
    pending_read: Option<PendingRead>,
    pending_write: Option<PendingWrite>,
}

impl SimpleClient {
    /// Creates a client.
    pub fn new(id: ClientId, config: SystemConfig) -> Self {
        SimpleClient {
            id,
            config,
            keys: KeyAllocator::new(id),
            pending_read: None,
            pending_write: None,
        }
    }
}

/// A storage server of the simple protocol.
#[derive(Debug)]
pub struct SimpleServer {
    id: ServerId,
    store: ShardStore,
}

impl SimpleServer {
    /// Creates a server hosting the objects placed on it by `config`.
    pub fn new(id: ServerId, config: &SystemConfig) -> Self {
        SimpleServer {
            id,
            store: ShardStore::new(config.objects_on(id), config.num_clients()),
        }
    }
}

/// A process of a simple-operations deployment.
#[derive(Debug)]
pub enum SimpleNode {
    /// A client.
    Client(SimpleClient),
    /// A storage server.
    Server(SimpleServer),
}

impl SimpleNode {
    /// The identity of this process.
    pub(crate) fn id(&self) -> ProcessId {
        match self {
            SimpleNode::Client(c) => ProcessId::Client(c.id),
            SimpleNode::Server(s) => ProcessId::Server(s.id),
        }
    }

    /// The INV handler, run by `AnyNode`.
    pub(crate) fn handle_invoke(
        &mut self,
        tx_id: TxId,
        spec: TxSpec,
        effects: &mut Effects<AnyMsg>,
    ) {
        let SimpleNode::Client(client) = self else {
            panic!("servers do not accept invocations");
        };
        match spec {
            TxSpec::Read(read) => {
                assert!(client.pending_read.is_none(), "client read invoked while one is outstanding");
                client.pending_read = Some(PendingRead::new(tx_id, read.objects.clone()));
                for &object in &read.objects {
                    let server = client.config.server_for(object);
                    effects.send(ProcessId::Server(server), SimpleMsg::ReadReq { tx: tx_id, object });
                }
            }
            TxSpec::Write(write) => {
                assert!(client.pending_write.is_none(), "client write invoked while one is outstanding");
                let key = client.keys.allocate();
                client.pending_write = Some(PendingWrite::new(tx_id, key, write.objects()));
                for &(object, value) in &write.writes {
                    let server = client.config.server_for(object);
                    effects.send(
                        ProcessId::Server(server),
                        SimpleMsg::WriteReq {
                            tx: tx_id,
                            object,
                            key,
                            value,
                        },
                    );
                }
            }
        }
    }

    /// The delivery handler, run by `AnyNode`.
    pub(crate) fn handle_message(
        &mut self,
        from: ProcessId,
        msg: SimpleMsg,
        effects: &mut Effects<AnyMsg>,
    ) {
        match self {
            SimpleNode::Server(server) => match msg {
                SimpleMsg::ReadReq { tx, object } => {
                    let versions = server.store.object(object).expect("object hosted");
                    effects.send(
                        from,
                        SimpleMsg::ReadResp {
                            tx,
                            object,
                            key: versions.latest_key(),
                            value: versions.latest_value(),
                        },
                    );
                }
                SimpleMsg::WriteReq {
                    tx,
                    object,
                    key,
                    value,
                } => {
                    server.store.install(object, key, value);
                    effects.send(from, SimpleMsg::WriteAck { tx, object });
                }
                other => panic!("server received unexpected message {other:?}"),
            },
            SimpleNode::Client(client) => match msg {
                SimpleMsg::ReadResp {
                    tx,
                    object,
                    key,
                    value,
                } => {
                    let Some(p) = client.pending_read.as_mut() else {
                        return;
                    };
                    if p.tx != tx {
                        return;
                    }
                    p.record(ObjectRead { object, key, value });
                    if p.is_complete() {
                        let p = client.pending_read.take().expect("pending read");
                        effects.respond(tx, p.into_outcome());
                    }
                }
                SimpleMsg::WriteAck { tx, object } => {
                    let acked = |p: &mut PendingWrite| p.tx == tx && p.ack(object);
                    if let Some(p) = client.pending_write.take_if(acked) {
                        let outcome = WriteOutcome { key: p.key, tag: None };
                        effects.respond(tx, TxOutcome::Write(outcome));
                    }
                }
                other => panic!("client received unexpected message {other:?}"),
            },
        }
    }

    /// Drops a client's in-flight state for the aborted `tx_id`.
    pub(crate) fn abort(&mut self, tx_id: TxId) {
        if let SimpleNode::Client(client) = self {
            drop(client.pending_read.take_if(|p| p.tx == tx_id));
            drop(client.pending_write.take_if(|p| p.tx == tx_id));
        }
    }
}

/// Builds a simple-operations deployment for `config`.
pub fn deploy(config: &SystemConfig) -> Result<Vec<SimpleNode>> {
    config.validate().map_err(SnowError::InvalidConfig)?;
    let mut nodes = Vec::new();
    for c in config.readers().chain(config.writers()) {
        nodes.push(SimpleNode::Client(SimpleClient::new(c, config.clone())));
    }
    for s in config.servers() {
        nodes.push(SimpleNode::Server(SimpleServer::new(s, config)));
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
    fn simple_reads_are_one_nonblocking_round() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Simple, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = sim.invoke_at(0, writer, TxSpec::write(vec![(ObjectId(0), Value(4))]));
        assert!(sim.run_until_complete(w));
        let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        assert_eq!(read.rounds, 1);
        assert_eq!(read.max_versions_per_read(), 1);
        assert!(read.all_reads_nonblocking());
        let out = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(out.value_for(ObjectId(0)), Some(Value(4)));
        assert_eq!(out.value_for(ObjectId(1)), Some(Value::INITIAL));
    }

    #[test]
    fn grouped_simple_reads_can_observe_torn_writes() {
        // The reason simple reads are not a READ transaction: a multi-object
        // write can be observed half-applied.
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Simple, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = sim.invoke_at(
            0,
            writer,
            TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(1))]),
        );
        let r = sim.invoke_at(0, reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        // Deliver the write to object 0 only, then both reads, then the rest.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::Simple(SimpleMsg::WriteReq { object, .. }) if object == ObjectId(0)))
            .is_some());
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::Simple(SimpleMsg::ReadReq { object, .. }) if object == ObjectId(0)))
            .is_some());
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::Simple(SimpleMsg::ReadReq { object, .. }) if object == ObjectId(1)))
            .is_some());
        sim.run_until_quiescent();
        assert!(sim.is_complete(w) && sim.is_complete(r));
        let h = sim.history();
        let out = h.get(r).unwrap().outcome.as_ref().unwrap().as_read().unwrap().clone();
        // Torn: the write is visible on object 0 but not on object 1.
        assert_eq!(out.value_for(ObjectId(0)), Some(Value(1)));
        assert_eq!(out.value_for(ObjectId(1)), Some(Value::INITIAL));
    }

    #[test]
    fn concurrent_simple_operations_complete() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let readers: Vec<_> = config.readers().collect();
        let writers: Vec<_> = config.writers().collect();
        for seed in 0..5u64 {
            let mut sim = simulation(ProtocolKind::Simple, &config, RandomScheduler::new(seed));
            let txs = vec![
                sim.invoke_at(0, writers[0], TxSpec::write(vec![(ObjectId(0), Value(1))])),
                sim.invoke_at(0, writers[1], TxSpec::write(vec![(ObjectId(1), Value(2))])),
                sim.invoke_at(0, readers[0], TxSpec::read(vec![ObjectId(0), ObjectId(1)])),
                sim.invoke_at(0, readers[1], TxSpec::read(vec![ObjectId(2), ObjectId(3)])),
            ];
            sim.run_until_quiescent();
            for tx in &txs {
                assert!(sim.is_complete(*tx), "seed {seed}");
            }
        }
    }
}
