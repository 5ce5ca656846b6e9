//! An Eiger-style read-only transaction baseline (§6).
//!
//! Eiger [Lloyd et al., NSDI'13] orders operations with *Lamport clocks* and
//! validates a read-only transaction by checking that the *logical validity
//! intervals* of the returned versions overlap; if they do not, a second
//! round re-reads at a chosen effective logical time.  The SNOW paper's §6
//! observation — which this module exists to reproduce (Fig. 5) — is that
//! logical clocks cannot see the *real-time* order of writes issued by
//! different clients on different shards, so the accepted snapshot can
//! violate strict serializability: a READ can observe a later write `w₃`
//! while missing an earlier-completed write `w₂`.
//!
//! WRITEs here are simple single-round writes (as in Fig. 5); the reader
//! runs Eiger's first round and, only if the intervals do not overlap, the
//! second round at the effective time (the maximum first-round write
//! timestamp).

use crate::common::{KeyAllocator, PendingWrite};
use crate::AnyMsg;
use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ProcessId, ReadObjects, ReadOutcome, Result, ServerId,
    SnowError, SystemConfig, TxId, TxOutcome, TxSpec, Value, WriteOutcome,
};
use snow_core::{Effects, MsgInfo, ProtocolMessage};
use std::collections::BTreeMap;

/// A logical (Lamport) timestamp.
pub type LogicalTime = u64;

/// Messages exchanged by the Eiger-style protocol.
#[derive(Debug, Clone)]
pub enum EigerMsg {
    /// Write request: writer → server.
    WriteReq {
        /// WRITE transaction id.
        tx: TxId,
        /// Object to update.
        object: ObjectId,
        /// Version key (used for checker attribution).
        key: Key,
        /// New value.
        value: Value,
        /// Sender's Lamport clock.
        clock: LogicalTime,
    },
    /// Write acknowledgement: server → writer, carrying the assigned
    /// write timestamp.
    WriteAck {
        /// WRITE transaction id.
        tx: TxId,
        /// Acked object.
        object: ObjectId,
        /// Lamport timestamp assigned to the write.
        ts: LogicalTime,
    },
    /// First-round read: reader → server.
    ReadFirst {
        /// READ transaction id.
        tx: TxId,
        /// Object to read.
        object: ObjectId,
        /// Sender's Lamport clock.
        clock: LogicalTime,
    },
    /// First-round response: the latest version with its validity interval.
    ReadFirstResp {
        /// READ transaction id.
        tx: TxId,
        /// Object read.
        object: ObjectId,
        /// Version key of the value.
        key: Key,
        /// The value.
        value: Value,
        /// Timestamp at which the version was written (interval start).
        valid_from: LogicalTime,
        /// Server clock at response time (interval end for the latest version).
        valid_until: LogicalTime,
    },
    /// Second-round read at an effective logical time: reader → server.
    ReadSecond {
        /// READ transaction id.
        tx: TxId,
        /// Object to read.
        object: ObjectId,
        /// The effective logical time to read at.
        at_time: LogicalTime,
        /// Sender's Lamport clock.
        clock: LogicalTime,
    },
    /// Second-round response: the version valid at the requested time.
    ReadSecondResp {
        /// READ transaction id.
        tx: TxId,
        /// Object read.
        object: ObjectId,
        /// Version key of the value.
        key: Key,
        /// The value.
        value: Value,
    },
}

impl ProtocolMessage for EigerMsg {
    #[inline]
    fn info(&self) -> MsgInfo {
        match self {
            EigerMsg::WriteReq { tx, object, .. } => MsgInfo::write_request(*tx, Some(*object)),
            EigerMsg::WriteAck { tx, object, .. } => MsgInfo::write_ack(*tx, Some(*object)),
            EigerMsg::ReadFirst { tx, object, .. } | EigerMsg::ReadSecond { tx, object, .. } => {
                MsgInfo::read_request(*tx, Some(*object))
            }
            EigerMsg::ReadFirstResp { tx, object, .. } | EigerMsg::ReadSecondResp { tx, object, .. } => {
                MsgInfo::read_response(*tx, Some(*object), 1)
            }
        }
    }
}

/// A version stored by an Eiger server.
#[derive(Debug, Clone, Copy)]
struct EigerVersion {
    key: Key,
    value: Value,
    ts: LogicalTime,
}

/// An in-flight Eiger READ.
#[derive(Debug)]
struct PendingEigerRead {
    tx: TxId,
    objects: ReadObjects,
    first: BTreeMap<ObjectId, (Key, Value, LogicalTime, LogicalTime)>,
    second: BTreeMap<ObjectId, (Key, Value)>,
    awaiting_second: Vec<ObjectId>,
    second_round_started: bool,
}

/// The Eiger reader client.
#[derive(Debug)]
pub struct EigerReader {
    id: ClientId,
    config: SystemConfig,
    clock: LogicalTime,
    pending: Option<PendingEigerRead>,
    second_round_reads: u64,
}

impl EigerReader {
    /// Creates a reader.
    pub fn new(id: ClientId, config: SystemConfig) -> Self {
        EigerReader {
            id,
            config,
            clock: 0,
            pending: None,
            second_round_reads: 0,
        }
    }

    /// Number of READs (so far) that needed Eiger's second round.
    pub fn second_round_reads(&self) -> u64 {
        self.second_round_reads
    }

    fn try_finish(&mut self, effects: &mut Effects<AnyMsg>) {
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if !p.second_round_started {
            // Wait for all first-round responses.
            if p.first.len() < p.objects.len() {
                return;
            }
            // Eiger validity check: the returned versions are a consistent
            // snapshot if the intersection of their validity intervals is
            // non-empty.
            let low = p.first.values().map(|(_, _, from, _)| *from).max().unwrap_or(0);
            let high = p.first.values().map(|(_, _, _, until)| *until).min().unwrap_or(0);
            if low <= high {
                // Accept the first-round values.
                let reads = p
                    .objects
                    .iter()
                    .map(|o| {
                        let (key, value, _, _) = p.first[o];
                        ObjectRead { object: *o, key, value }
                    })
                    .collect();
                let tx = p.tx;
                self.pending = None;
                effects.respond(tx, TxOutcome::Read(ReadOutcome { reads, tag: None }));
                return;
            }
            // Second round at the effective time for the objects whose
            // interval does not contain it.
            p.second_round_started = true;
            self.second_round_reads += 1;
            let at_time = low;
            for o in &p.objects {
                let (_, _, from, until) = p.first[o];
                if !(from <= at_time && at_time <= until) {
                    p.awaiting_second.push(*o);
                }
            }
            let targets = p.awaiting_second.clone();
            let tx = p.tx;
            self.clock += 1;
            for o in targets {
                let server = self.config.server_for(o);
                effects.send(
                    ProcessId::Server(server),
                    EigerMsg::ReadSecond {
                        tx,
                        object: o,
                        at_time,
                        clock: self.clock,
                    },
                );
            }
            return;
        }
        // Second round in progress: finish when every re-read object answered.
        if !p.awaiting_second.is_empty() {
            return;
        }
        let reads = p
            .objects
            .iter()
            .map(|o| {
                if let Some((key, value)) = p.second.get(o) {
                    ObjectRead {
                        object: *o,
                        key: *key,
                        value: *value,
                    }
                } else {
                    let (key, value, _, _) = p.first[o];
                    ObjectRead { object: *o, key, value }
                }
            })
            .collect();
        let tx = p.tx;
        self.pending = None;
        effects.respond(tx, TxOutcome::Read(ReadOutcome { reads, tag: None }));
    }
}

/// An Eiger writer client (simple, per-object writes as in Fig. 5).
#[derive(Debug)]
pub struct EigerWriter {
    id: ClientId,
    config: SystemConfig,
    clock: LogicalTime,
    keys: KeyAllocator,
    pending: Option<PendingWrite>,
}

impl EigerWriter {
    /// Creates a writer.
    pub fn new(id: ClientId, config: SystemConfig) -> Self {
        EigerWriter {
            id,
            config,
            clock: 0,
            keys: KeyAllocator::new(id),
            pending: None,
        }
    }
}

/// An Eiger storage server.
#[derive(Debug)]
pub struct EigerServer {
    id: ServerId,
    clock: LogicalTime,
    versions: BTreeMap<ObjectId, Vec<EigerVersion>>,
}

impl EigerServer {
    /// Creates a server hosting the objects placed on it by `config`.
    pub fn new(id: ServerId, config: &SystemConfig) -> Self {
        let versions = config
            .objects_on(id)
            .into_iter()
            .map(|o| {
                (
                    o,
                    vec![EigerVersion {
                        key: Key::initial(),
                        value: Value::INITIAL,
                        ts: 0,
                    }],
                )
            })
            .collect();
        EigerServer {
            id,
            clock: 0,
            versions,
        }
    }

    fn tick(&mut self, incoming: LogicalTime) -> LogicalTime {
        self.clock = self.clock.max(incoming) + 1;
        self.clock
    }

    fn latest(&self, object: ObjectId) -> EigerVersion {
        *self
            .versions
            .get(&object)
            .and_then(|v| v.last())
            .expect("object hosted with at least the initial version")
    }

    fn at_time(&self, object: ObjectId, at: LogicalTime) -> EigerVersion {
        let versions = self.versions.get(&object).expect("object hosted");
        versions
            .iter()
            .rev()
            .find(|v| v.ts <= at)
            .copied()
            .unwrap_or(versions[0])
    }
}

/// A process of an Eiger deployment.
#[derive(Debug)]
pub enum EigerNode {
    /// A reader client.
    Reader(EigerReader),
    /// A writer client.
    Writer(EigerWriter),
    /// A storage server.
    Server(EigerServer),
}

impl EigerNode {
    /// The identity of this process.
    pub(crate) fn id(&self) -> ProcessId {
        match self {
            EigerNode::Reader(r) => ProcessId::Client(r.id),
            EigerNode::Writer(w) => ProcessId::Client(w.id),
            EigerNode::Server(s) => ProcessId::Server(s.id),
        }
    }

    /// The INV handler, run by `AnyNode`.
    pub(crate) fn handle_invoke(
        &mut self,
        tx_id: TxId,
        spec: TxSpec,
        effects: &mut Effects<AnyMsg>,
    ) {
        match (self, spec) {
            (EigerNode::Reader(r), TxSpec::Read(read)) => {
                assert!(r.pending.is_none(), "reader invoked while a READ is outstanding");
                r.clock += 1;
                r.pending = Some(PendingEigerRead {
                    tx: tx_id,
                    objects: read.objects.clone(),
                    first: BTreeMap::new(),
                    second: BTreeMap::new(),
                    awaiting_second: Vec::new(),
                    second_round_started: false,
                });
                for &object in &read.objects {
                    let server = r.config.server_for(object);
                    effects.send(
                        ProcessId::Server(server),
                        EigerMsg::ReadFirst {
                            tx: tx_id,
                            object,
                            clock: r.clock,
                        },
                    );
                }
            }
            (EigerNode::Writer(w), TxSpec::Write(write)) => {
                assert!(w.pending.is_none(), "writer invoked while a WRITE is outstanding");
                w.clock += 1;
                let key = w.keys.allocate();
                w.pending = Some(PendingWrite::new(tx_id, key, write.objects()));
                for &(object, value) in &write.writes {
                    let server = w.config.server_for(object);
                    effects.send(
                        ProcessId::Server(server),
                        EigerMsg::WriteReq {
                            tx: tx_id,
                            object,
                            key,
                            value,
                            clock: w.clock,
                        },
                    );
                }
            }
            (EigerNode::Reader(_), TxSpec::Write(_)) => {
                panic!("Eiger readers only execute READ transactions")
            }
            (EigerNode::Writer(_), TxSpec::Read(_)) => {
                panic!("Eiger writers only execute WRITE transactions")
            }
            (EigerNode::Server(_), _) => panic!("servers do not accept invocations"),
        }
    }

    /// The delivery handler, run by `AnyNode`.
    pub(crate) fn handle_message(
        &mut self,
        from: ProcessId,
        msg: EigerMsg,
        effects: &mut Effects<AnyMsg>,
    ) {
        match self {
            EigerNode::Server(server) => match msg {
                EigerMsg::WriteReq {
                    tx,
                    object,
                    key,
                    value,
                    clock,
                } => {
                    let ts = server.tick(clock);
                    server
                        .versions
                        .entry(object)
                        .or_default()
                        .push(EigerVersion { key, value, ts });
                    effects.send(from, EigerMsg::WriteAck { tx, object, ts });
                }
                EigerMsg::ReadFirst { tx, object, clock } => {
                    let now = server.tick(clock);
                    let latest = server.latest(object);
                    effects.send(
                        from,
                        EigerMsg::ReadFirstResp {
                            tx,
                            object,
                            key: latest.key,
                            value: latest.value,
                            valid_from: latest.ts,
                            valid_until: now,
                        },
                    );
                }
                EigerMsg::ReadSecond {
                    tx,
                    object,
                    at_time,
                    clock,
                } => {
                    server.tick(clock);
                    let version = server.at_time(object, at_time);
                    effects.send(
                        from,
                        EigerMsg::ReadSecondResp {
                            tx,
                            object,
                            key: version.key,
                            value: version.value,
                        },
                    );
                }
                other => panic!("server received unexpected message {other:?}"),
            },
            EigerNode::Reader(reader) => {
                match msg {
                    EigerMsg::ReadFirstResp {
                        tx,
                        object,
                        key,
                        value,
                        valid_from,
                        valid_until,
                    } => {
                        reader.clock = reader.clock.max(valid_until) + 1;
                        if let Some(p) = reader.pending.as_mut() {
                            if p.tx == tx {
                                p.first.insert(object, (key, value, valid_from, valid_until));
                            }
                        }
                    }
                    EigerMsg::ReadSecondResp {
                        tx,
                        object,
                        key,
                        value,
                    } => {
                        reader.clock += 1;
                        if let Some(p) = reader.pending.as_mut() {
                            if p.tx == tx {
                                p.awaiting_second.retain(|o| *o != object);
                                p.second.insert(object, (key, value));
                            }
                        }
                    }
                    other => panic!("reader received unexpected message {other:?}"),
                }
                reader.try_finish(effects);
            }
            EigerNode::Writer(writer) => match msg {
                EigerMsg::WriteAck { tx, object, ts } => {
                    writer.clock = writer.clock.max(ts) + 1;
                    let acked = |p: &mut PendingWrite| p.tx == tx && p.ack(object);
                    if let Some(p) = writer.pending.take_if(acked) {
                        let outcome = WriteOutcome { key: p.key, tag: None };
                        effects.respond(tx, TxOutcome::Write(outcome));
                    }
                }
                other => panic!("writer received unexpected message {other:?}"),
            },
        }
    }

    /// Drops a client's in-flight state for the aborted `tx_id`.
    pub(crate) fn abort(&mut self, tx_id: TxId) {
        match self {
            EigerNode::Reader(r) => drop(r.pending.take_if(|p| p.tx == tx_id)),
            EigerNode::Writer(w) => drop(w.pending.take_if(|p| p.tx == tx_id)),
            EigerNode::Server(_) => {}
        }
    }
}

/// Builds an Eiger-style deployment for `config`.
pub fn deploy(config: &SystemConfig) -> Result<Vec<EigerNode>> {
    config.validate().map_err(SnowError::InvalidConfig)?;
    let mut nodes = Vec::new();
    for r in config.readers() {
        nodes.push(EigerNode::Reader(EigerReader::new(r, config.clone())));
    }
    for w in config.writers() {
        nodes.push(EigerNode::Writer(EigerWriter::new(w, config.clone())));
    }
    for s in config.servers() {
        nodes.push(EigerNode::Server(EigerServer::new(s, config)));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::tests::simulation;
    use crate::{AnyNode, ProtocolKind};
    use snow_sim::{LatencyScheduler, RandomScheduler};

    #[test]
    fn quiescent_read_after_write_sees_the_write_in_one_round() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Eiger, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = sim.invoke_at(
            0,
            writer,
            TxSpec::write(vec![(ObjectId(0), Value(5)), (ObjectId(1), Value(6))]),
        );
        assert!(sim.run_until_complete(w));
        let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        let outcome = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(5)));
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value(6)));
        assert_eq!(read.rounds, 1);
        assert!(read.all_reads_nonblocking());
    }

    #[test]
    fn concurrent_runs_complete_under_random_schedules() {
        let config = SystemConfig::mwmr(2, 2, 1);
        let reader = config.readers().next().unwrap();
        let writers: Vec<_> = config.writers().collect();
        for seed in 0..10u64 {
            let mut sim = simulation(ProtocolKind::Eiger, &config, RandomScheduler::new(seed));
            let mut txs = vec![
                sim.invoke_at(0, writers[0], TxSpec::write(vec![(ObjectId(0), Value(1))])),
                sim.invoke_at(1, writers[1], TxSpec::write(vec![(ObjectId(1), Value(2))])),
                sim.invoke_at(2, reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)])),
            ];
            sim.run_until_quiescent();
            for tx in txs.drain(..) {
                assert!(sim.is_complete(tx), "seed {seed}");
            }
        }
    }

    #[test]
    fn interval_mismatch_triggers_second_round() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = simulation(ProtocolKind::Eiger, &config, LatencyScheduler::fifo());
        let reader = config.readers().next().unwrap();
        let writer = config.writers().next().unwrap();

        // Pump many writes into o0 so s0's clock races far ahead of s1's.
        for i in 0..10u64 {
            let w = sim.invoke_now(writer, TxSpec::write(vec![(ObjectId(0), Value(i))]));
            assert!(sim.run_until_complete(w));
        }
        // A read of both objects: o0's latest version has valid_from ~ 10+,
        // o1's initial version has valid_until ~ 1, so the intervals cannot
        // overlap and the second round fires.
        let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
        assert!(sim.run_until_complete(r));
        match sim.process(ProcessId::Client(reader)).unwrap() {
            AnyNode::Eiger(EigerNode::Reader(rd)) => assert_eq!(rd.second_round_reads(), 1),
            _ => panic!("expected reader"),
        }
        let h = sim.history();
        assert_eq!(h.get(r).unwrap().rounds, 2);
    }
}
