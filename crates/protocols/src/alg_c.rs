//! **Algorithm C** (§9, Pseudocodes 5, 7): SNW + *one-round* READ
//! transactions in the multi-writer multi-reader (MWMR) setting; the paper
//! bounds a response at |W| + 1 versions (one per concurrent WRITE
//! transaction plus the stable one).  **This implementation never collects
//! a version**, so a response carries every version ever written to the
//! object — 118 on average at 10 000 open-loop arrivals, linear in run
//! length (`protocols.versions_per_read`).  Reaching the paper's bound
//! needs version garbage collection, an open question in ROADMAP.md.
//!
//! WRITEs are identical to Algorithm B.  A READ is a single parallel round:
//! the reader simultaneously sends `get-tag-arr` to the coordinator `s*` and
//! `read-vals` to every server it reads; each server returns its entire
//! `Vals` set; the reader keeps, per object, the version named by the
//! coordinator's key array.
//!
//! The `Vals` set travels as a copy-on-write snapshot
//! ([`snow_core::ObjectVersions::snapshot`]): the server keeps one shared,
//! key-ordered slice per object, rebuilt by the first `read-vals` after an
//! install, and every response until the next install is a pointer to it.
//! A snapshot taken before an install never shows it — the paper's "returns
//! `Vals` as of the request" — and its length is what the instrumentation
//! counts, so sharing changes no observable quantity.
//!
//! ## A liveness edge case the paper glosses over
//!
//! Because the `read-vals` snapshot at server `sᵢ` and the `get-tag-arr`
//! answer at `s*` are taken at *different* moments of an asynchronous
//! execution, the coordinator may name a key `κᵢ` that the (earlier)
//! `Vals_i` snapshot does not yet contain: the reader's `read-vals` can
//! arrive at `sᵢ` *before* the WRITE's `write-val` installs `κᵢ` there,
//! while the `get-tag-arr` arrives at `s*` *after* that WRITE registered.
//! The paper's pseudocode would return no value in that case.  Our
//! implementation detects the gap and issues a *targeted second-round*
//! `read-val(κᵢ)` for exactly the missing objects, preserving safety (the
//! snapshot stays consistent at the coordinator-chosen cut) at the cost of
//! an extra round in that rare race.  `fallback_rounds()` counts how often
//! this happened; the adversarial test below shows the race is real, and the
//! benchmarks show it essentially never fires under realistic schedules
//! (once in 20 000 open-loop arrivals; `snow-workload` pins that every READ
//! the history instruments with two rounds is one of these).  ARCHITECTURE.md
//! ("Closed-loop vs open-loop benchmarking") records it as a reproduction
//! finding.

use crate::common::{KeyAllocator, PendingWrite, WriteLog};
use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ProcessId, ReadOutcome, Result, ServerId, ShardStore,
    SnowError, SystemConfig, Tag, TxId, TxOutcome, TxSpec, Value, WriteOutcome,
};
use snow_core::{Effects, MsgInfo, Process, ProtocolMessage};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages exchanged by Algorithm C.
#[derive(Debug, Clone)]
pub enum AlgCMsg {
    /// `write-val`: writer → server.
    WriteVal {
        /// WRITE transaction id.
        tx: TxId,
        /// Object to update.
        object: ObjectId,
        /// Version key `κ`.
        key: Key,
        /// New value.
        value: Value,
    },
    /// `ack`: server → writer.
    WriteAck {
        /// WRITE transaction id.
        tx: TxId,
        /// Acked object.
        object: ObjectId,
    },
    /// `update-coor`: writer → coordinator.
    UpdateCoor {
        /// WRITE transaction id.
        tx: TxId,
        /// Version key.
        key: Key,
        /// Objects updated.
        objects: Vec<ObjectId>,
    },
    /// `(ack, t_w)`: coordinator → writer.
    CoorAck {
        /// WRITE transaction id.
        tx: TxId,
        /// Tag assigned.
        tag: Tag,
    },
    /// `get-tag-arr`: reader → coordinator (sent in the same round as
    /// `read-vals`).
    GetTagArr {
        /// READ transaction id.
        tx: TxId,
        /// Objects being read.
        objects: Vec<ObjectId>,
    },
    /// `(t_r, (κ₁,…,κ_k))`: coordinator → reader.
    TagArr {
        /// READ transaction id.
        tx: TxId,
        /// READ tag `t_r`.
        tag: Tag,
        /// Latest key per requested object.
        keys: Vec<(ObjectId, Key)>,
    },
    /// `read-vals`: reader → server; asks for the full `Vals` set.
    ReadVals {
        /// READ transaction id.
        tx: TxId,
        /// Object whose versions are requested.
        object: ObjectId,
    },
    /// Full version-set response: server → reader.
    ReadValsResp {
        /// READ transaction id.
        tx: TxId,
        /// Object.
        object: ObjectId,
        /// Every `(key, value)` pair the server stored for it when the
        /// request arrived, in key order: a shared
        /// [`snow_core::ObjectVersions::snapshot`], so the response (and a
        /// fault-engine duplicate of it) carries a pointer, not a copy.
        versions: Arc<[(Key, Value)]>,
    },
    /// Targeted fallback read (our safety extension for the race documented
    /// in the module docs): reader → server.
    ReadVal {
        /// READ transaction id.
        tx: TxId,
        /// Object to read.
        object: ObjectId,
        /// Missing version key.
        key: Key,
    },
    /// Fallback response: server → reader (one version).
    ReadResp {
        /// READ transaction id.
        tx: TxId,
        /// Object read.
        object: ObjectId,
        /// Version key.
        key: Key,
        /// Value.
        value: Value,
    },
}

impl ProtocolMessage for AlgCMsg {
    fn info(&self) -> MsgInfo {
        match self {
            AlgCMsg::WriteVal { tx, object, .. } => MsgInfo::write_request(*tx, Some(*object)),
            AlgCMsg::WriteAck { tx, object } => MsgInfo::write_ack(*tx, Some(*object)),
            AlgCMsg::UpdateCoor { tx, .. } => MsgInfo::write_request(*tx, None),
            AlgCMsg::CoorAck { tx, .. } => MsgInfo::write_ack(*tx, None),
            AlgCMsg::GetTagArr { tx, .. } => MsgInfo::read_request(*tx, None),
            AlgCMsg::TagArr { tx, .. } => MsgInfo::read_response(*tx, None, 0),
            AlgCMsg::ReadVals { tx, object } => MsgInfo::read_request(*tx, Some(*object)),
            AlgCMsg::ReadValsResp {
                tx,
                object,
                versions,
            } => MsgInfo::read_response(*tx, Some(*object), versions.len()),
            AlgCMsg::ReadVal { tx, object, .. } => MsgInfo::read_request(*tx, Some(*object)),
            AlgCMsg::ReadResp { tx, object, .. } => MsgInfo::read_response(*tx, Some(*object), 1),
        }
    }
}

/// In-flight READ bookkeeping for Algorithm C.
#[derive(Debug)]
struct PendingReadC {
    tx: TxId,
    objects: Vec<ObjectId>,
    tag: Option<Tag>,
    keys: Vec<(ObjectId, Key)>,
    vals: BTreeMap<ObjectId, Arc<[(Key, Value)]>>,
    resolved: Vec<ObjectRead>,
    awaiting_fallback: Vec<ObjectId>,
    used_fallback: bool,
}

impl PendingReadC {
    fn new(tx: TxId, objects: Vec<ObjectId>) -> Self {
        PendingReadC {
            tx,
            objects,
            tag: None,
            keys: Vec::new(),
            vals: BTreeMap::new(),
            resolved: Vec::new(),
            awaiting_fallback: Vec::new(),
            used_fallback: false,
        }
    }

    fn have_all_first_round_responses(&self) -> bool {
        self.tag.is_some() && self.objects.iter().all(|o| self.vals.contains_key(o))
    }
}

/// A reader client of Algorithm C.
#[derive(Debug)]
pub struct AlgCReader {
    id: ClientId,
    config: SystemConfig,
    coordinator: ServerId,
    pending: Option<PendingReadC>,
    fallback_rounds: u64,
}

impl AlgCReader {
    /// Creates a reader that consults coordinator `s*`.
    pub fn new(id: ClientId, coordinator: ServerId, config: SystemConfig) -> Self {
        AlgCReader {
            id,
            config,
            coordinator,
            pending: None,
            fallback_rounds: 0,
        }
    }

    /// Number of READs (so far) that needed the targeted second-round
    /// fallback because a coordinator-named version was missing from a
    /// first-round `Vals` snapshot.
    pub fn fallback_rounds(&self) -> u64 {
        self.fallback_rounds
    }

    /// Tries to resolve the READ once the tag array and all version sets are
    /// in.  Emits fallback requests for objects whose named version is
    /// missing; responds if everything resolved.
    fn try_resolve(&mut self, effects: &mut Effects<AlgCMsg>) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if !pending.have_all_first_round_responses() || !pending.awaiting_fallback.is_empty() {
            return;
        }
        if pending.resolved.is_empty() {
            // First resolution pass.
            for &(object, key) in &pending.keys {
                let versions = pending.vals.get(&object).expect("all responses present");
                // Snapshots are in key order.
                match versions.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) => pending.resolved.push(ObjectRead {
                        object,
                        key,
                        value: versions[i].1,
                    }),
                    Err(_) => {
                        pending.awaiting_fallback.push(object);
                        pending.used_fallback = true;
                        let server = self.config.server_for(object);
                        effects.send(
                            ProcessId::Server(server),
                            AlgCMsg::ReadVal {
                                tx: pending.tx,
                                object,
                                key,
                            },
                        );
                    }
                }
            }
        }
        if pending.awaiting_fallback.is_empty() {
            let pending = self.pending.take().expect("pending read present");
            if pending.used_fallback {
                self.fallback_rounds += 1;
            }
            let mut reads = Vec::with_capacity(pending.objects.len());
            let mut resolved = pending.resolved;
            for o in &pending.objects {
                if let Some(pos) = resolved.iter().position(|r| r.object == *o) {
                    reads.push(resolved.remove(pos));
                }
            }
            effects.respond(
                pending.tx,
                TxOutcome::Read(ReadOutcome {
                    reads,
                    tag: pending.tag,
                }),
            );
        }
    }
}

/// A writer client of Algorithm C (identical behaviour to Algorithm B's).
#[derive(Debug)]
pub struct AlgCWriter {
    id: ClientId,
    config: SystemConfig,
    coordinator: ServerId,
    keys: KeyAllocator,
    pending: Option<PendingWrite>,
}

impl AlgCWriter {
    /// Creates a writer that registers WRITEs with coordinator `s*`.
    pub fn new(id: ClientId, coordinator: ServerId, config: SystemConfig) -> Self {
        AlgCWriter {
            id,
            config,
            coordinator,
            keys: KeyAllocator::new(id),
            pending: None,
        }
    }
}

/// A storage server of Algorithm C.
#[derive(Debug)]
pub struct AlgCServer {
    id: ServerId,
    store: ShardStore,
    log: Option<WriteLog>,
}

impl AlgCServer {
    /// Creates a server; `coordinator` marks whether it is `s*`.
    pub fn new(id: ServerId, config: &SystemConfig, coordinator: bool) -> Self {
        AlgCServer {
            id,
            store: ShardStore::new(config.objects_on(id)),
            log: coordinator.then(|| WriteLog::new(config.objects().collect())),
        }
    }
}

/// A process of an Algorithm C deployment.
#[derive(Debug)]
pub enum AlgCNode {
    /// A reader client.
    Reader(AlgCReader),
    /// A writer client.
    Writer(AlgCWriter),
    /// A storage server (possibly the coordinator).
    Server(AlgCServer),
}

/// The coordinator of an Algorithm C deployment: server 0.
pub const COORDINATOR: ServerId = ServerId(0);

impl Process for AlgCNode {
    type Msg = AlgCMsg;

    fn id(&self) -> ProcessId {
        match self {
            AlgCNode::Reader(r) => ProcessId::Client(r.id),
            AlgCNode::Writer(w) => ProcessId::Client(w.id),
            AlgCNode::Server(s) => ProcessId::Server(s.id),
        }
    }

    fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<AlgCMsg>) {
        match (self, spec) {
            (AlgCNode::Reader(r), TxSpec::Read(read)) => {
                assert!(r.pending.is_none(), "reader invoked while a READ is outstanding");
                let objects = read.objects.clone();
                r.pending = Some(PendingReadC::new(tx_id, objects.clone()));
                // One round: tag array and version sets requested in parallel.
                effects.send(
                    ProcessId::Server(r.coordinator),
                    AlgCMsg::GetTagArr {
                        tx: tx_id,
                        objects: objects.clone(),
                    },
                );
                for object in objects {
                    let server = r.config.server_for(object);
                    effects.send(
                        ProcessId::Server(server),
                        AlgCMsg::ReadVals { tx: tx_id, object },
                    );
                }
            }
            (AlgCNode::Writer(w), TxSpec::Write(write)) => {
                assert!(w.pending.is_none(), "writer invoked while a WRITE is outstanding");
                let key = w.keys.allocate();
                let objects: Vec<ObjectId> = write.writes.iter().map(|(o, _)| *o).collect();
                w.pending = Some(PendingWrite::new(tx_id, key, objects));
                for (object, value) in write.writes {
                    let server = w.config.server_for(object);
                    effects.send(
                        ProcessId::Server(server),
                        AlgCMsg::WriteVal {
                            tx: tx_id,
                            object,
                            key,
                            value,
                        },
                    );
                }
            }
            (AlgCNode::Reader(_), TxSpec::Write(_)) => {
                panic!("Algorithm C readers only execute READ transactions")
            }
            (AlgCNode::Writer(_), TxSpec::Read(_)) => {
                panic!("Algorithm C writers only execute WRITE transactions")
            }
            (AlgCNode::Server(_), _) => panic!("servers do not accept invocations"),
        }
    }

    fn on_abort(&mut self, tx_id: TxId) {
        match self {
            AlgCNode::Reader(r) => {
                if r.pending.as_ref().is_some_and(|p| p.tx == tx_id) {
                    r.pending = None;
                }
            }
            AlgCNode::Writer(w) => {
                if w.pending.as_ref().is_some_and(|p| p.tx == tx_id) {
                    w.pending = None;
                }
            }
            AlgCNode::Server(_) => {}
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: AlgCMsg, effects: &mut Effects<AlgCMsg>) {
        match self {
            AlgCNode::Server(server) => match msg {
                AlgCMsg::WriteVal {
                    tx,
                    object,
                    key,
                    value,
                } => {
                    server.store.install(object, key, value);
                    effects.send(from, AlgCMsg::WriteAck { tx, object });
                }
                AlgCMsg::UpdateCoor { tx, key, objects } => {
                    let log = server
                        .log
                        .as_mut()
                        .expect("update-coor sent to a non-coordinator server");
                    let tag = log.append(key, objects);
                    effects.send(from, AlgCMsg::CoorAck { tx, tag });
                }
                AlgCMsg::GetTagArr { tx, objects } => {
                    let log = server
                        .log
                        .as_ref()
                        .expect("get-tag-arr sent to a non-coordinator server");
                    let (tag, keys) = log.tag_array(&objects);
                    effects.send(from, AlgCMsg::TagArr { tx, tag, keys });
                }
                AlgCMsg::ReadVals { tx, object } => {
                    let versions = server
                        .store
                        .object_mut(object)
                        .map(|o| o.snapshot())
                        .unwrap_or_default();
                    effects.send(
                        from,
                        AlgCMsg::ReadValsResp {
                            tx,
                            object,
                            versions,
                        },
                    );
                }
                AlgCMsg::ReadVal { tx, object, key } => {
                    // On the paper's reliable network every version the
                    // coordinator registers is installed before the fallback
                    // can name it.  Under the fault engine the WriteVal can
                    // die (dropped message, server crash with state loss); a
                    // server without the named version stays silent and the
                    // orphaned READ retires as Aborted at quiescence.
                    let Some(value) = server.store.get(object, &key) else {
                        return;
                    };
                    effects.send(
                        from,
                        AlgCMsg::ReadResp {
                            tx,
                            object,
                            key,
                            value,
                        },
                    );
                }
                other => panic!("server received unexpected message {other:?}"),
            },
            AlgCNode::Reader(reader) => {
                match msg {
                    AlgCMsg::TagArr { tx, tag, keys } => {
                        if let Some(p) = reader.pending.as_mut() {
                            if p.tx == tx {
                                p.tag = Some(tag);
                                p.keys = keys;
                            }
                        }
                    }
                    AlgCMsg::ReadValsResp {
                        tx,
                        object,
                        versions,
                    } => {
                        if let Some(p) = reader.pending.as_mut() {
                            if p.tx == tx {
                                p.vals.insert(object, versions);
                            }
                        }
                    }
                    AlgCMsg::ReadResp {
                        tx,
                        object,
                        key,
                        value,
                    } => {
                        if let Some(p) = reader.pending.as_mut() {
                            if p.tx == tx {
                                p.awaiting_fallback.retain(|o| *o != object);
                                p.resolved.push(ObjectRead { object, key, value });
                            }
                        }
                    }
                    other => panic!("reader received unexpected message {other:?}"),
                }
                reader.try_resolve(effects);
            }
            AlgCNode::Writer(writer) => match msg {
                AlgCMsg::WriteAck { tx, object } => {
                    let Some(pending) = writer.pending.as_mut() else {
                        return;
                    };
                    if pending.tx != tx || pending.registering {
                        return;
                    }
                    if pending.ack(object) {
                        pending.registering = true;
                        let key = pending.key;
                        let objects = pending.objects.clone();
                        effects.send(
                            ProcessId::Server(writer.coordinator),
                            AlgCMsg::UpdateCoor { tx, key, objects },
                        );
                    }
                }
                AlgCMsg::CoorAck { tx, tag } => {
                    let Some(pending) = writer.pending.as_ref() else {
                        return;
                    };
                    if pending.tx != tx {
                        return;
                    }
                    let key = pending.key;
                    writer.pending = None;
                    effects.respond(
                        tx,
                        TxOutcome::Write(WriteOutcome {
                            key,
                            tag: Some(tag),
                        }),
                    );
                }
                other => panic!("writer received unexpected message {other:?}"),
            },
        }
    }
}

/// Builds an Algorithm C deployment for `config`.
pub fn deploy(config: &SystemConfig) -> Result<Vec<AlgCNode>> {
    config.validate().map_err(SnowError::InvalidConfig)?;
    let mut nodes = Vec::new();
    for r in config.readers() {
        nodes.push(AlgCNode::Reader(AlgCReader::new(r, COORDINATOR, config.clone())));
    }
    for w in config.writers() {
        nodes.push(AlgCNode::Writer(AlgCWriter::new(w, COORDINATOR, config.clone())));
    }
    for s in config.servers() {
        nodes.push(AlgCNode::Server(AlgCServer::new(s, config, s == COORDINATOR)));
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::Value;
    use snow_sim::{FifoScheduler, RandomScheduler, Simulation, StepOutcome};

    fn build(config: &SystemConfig, seed: u64) -> Simulation<AlgCNode, RandomScheduler> {
        let mut sim = Simulation::new(RandomScheduler::new(seed));
        for node in deploy(config).unwrap() {
            sim.add_process(node);
        }
        sim
    }

    #[test]
    fn read_after_write_is_one_round() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = Simulation::new(FifoScheduler::new());
        for node in deploy(&config).unwrap() {
            sim.add_process(node);
        }
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
        // The C signature: one round, non-blocking, but responses may carry
        // multiple versions (here: initial + one write = 2 on each server).
        assert_eq!(read.rounds, 1);
        assert!(read.all_reads_nonblocking());
        assert_eq!(read.max_versions_per_read(), 2);
        assert_eq!(read.c2c_messages, 0);
    }

    #[test]
    fn versions_returned_grow_with_registered_writes() {
        let config = SystemConfig::mwmr(1, 1, 1);
        let mut sim = build(&config, 1);
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        for i in 1..=5u64 {
            let w = sim.invoke_now(writer, TxSpec::write(vec![(ObjectId(0), Value(i))]));
            assert!(sim.run_until_complete(w));
        }
        let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0)]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        // 5 writes + the initial version.
        assert_eq!(read.max_versions_per_read(), 6);
        let outcome = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(5)));
    }

    #[test]
    fn concurrent_workload_completes_under_random_schedules() {
        let config = SystemConfig::mwmr(3, 2, 2);
        let readers: Vec<_> = config.readers().collect();
        let writers: Vec<_> = config.writers().collect();
        for seed in 0..10u64 {
            let mut sim = build(&config, seed);
            let txs = vec![
                sim.invoke_at(
                    0,
                    writers[0],
                    TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]),
                ),
                sim.invoke_at(1, writers[1], TxSpec::write(vec![(ObjectId(2), Value(3))])),
                sim.invoke_at(2, readers[0], TxSpec::read(vec![ObjectId(0), ObjectId(1)])),
                sim.invoke_at(3, readers[1], TxSpec::read(vec![ObjectId(1), ObjectId(2)])),
            ];
            sim.run_until_quiescent();
            for tx in &txs {
                assert!(sim.is_complete(*tx), "seed {seed}");
            }
            let h = sim.history();
            for r in h.reads() {
                assert!(r.all_reads_nonblocking(), "seed {seed}");
                assert!(r.rounds <= 2, "seed {seed}: rounds {}", r.rounds);
            }
        }
    }

    /// The adversarial schedule from the module documentation: the
    /// coordinator learns about a WRITE before one of its servers' `Vals`
    /// snapshots does, forcing the reader into the targeted fallback round.
    #[test]
    fn adversarial_schedule_triggers_the_documented_fallback() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = Simulation::new(FifoScheduler::new());
        for node in deploy(&config).unwrap() {
            sim.add_process(node);
        }
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();

        // The WRITE touches only object 1 (hosted on non-coordinator s1).
        let w = sim.invoke_at(0, writer, TxSpec::write(vec![(ObjectId(1), Value(7))]));
        let r = sim.invoke_at(0, reader, TxSpec::read(vec![ObjectId(1)]));

        // Dispatch both invocations without delivering anything yet.
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));

        // 1. Deliver the reader's read-vals to s1 *before* the write-val:
        //    the Vals snapshot misses the new version.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AlgCMsg::ReadVals { .. }))
            .is_some());
        // 2. Let the WRITE finish completely (write-val, ack, update-coor,
        //    ack) while continuing to hold back the reader's get-tag-arr.
        while !sim.is_complete(w) {
            assert!(sim
                .deliver_where(|p| !matches!(p.msg, AlgCMsg::GetTagArr { .. }))
                .is_some());
        }
        // 3. Only now deliver the reader's get-tag-arr: the coordinator names
        //    the new key, which the Vals snapshot lacks.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AlgCMsg::GetTagArr { .. }))
            .is_some());
        // Finish the run: the reader must fall back and still return the new value.
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let read = h.get(r).unwrap();
        let outcome = read.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value(7)));
        assert_eq!(read.rounds, 2, "fallback adds a round in this race");
        match sim.process(ProcessId::Client(reader)).unwrap() {
            AlgCNode::Reader(rd) => assert_eq!(rd.fallback_rounds(), 1),
            _ => panic!("expected reader"),
        }
    }

    #[test]
    fn fallback_is_not_used_on_benign_schedules() {
        let config = SystemConfig::mwmr(2, 2, 1);
        let reader = config.readers().next().unwrap();
        let writers: Vec<_> = config.writers().collect();
        let mut sim = build(&config, 42);
        for i in 0..6u64 {
            let w = sim.invoke_now(
                writers[(i % 2) as usize],
                TxSpec::write(vec![(ObjectId((i % 2) as u32), Value(i))]),
            );
            assert!(sim.run_until_complete(w));
            let r = sim.invoke_now(reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
            assert!(sim.run_until_complete(r));
        }
        match sim.process(ProcessId::Client(reader)).unwrap() {
            AlgCNode::Reader(rd) => assert_eq!(rd.fallback_rounds(), 0),
            _ => panic!("expected reader"),
        }
    }
}
