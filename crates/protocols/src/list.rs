//! **Algorithms A, B and C** (§5.2, §8, §9; Pseudocodes 4–7) — one family
//! with one moving part: *where the `List` of registered WRITEs lives and
//! how a READ consults it*.
//!
//! The WRITE is the same in all three (B and C share Pseudocode 5
//! verbatim): a `write-value` phase — `(write-val, (κ, vᵢ))` to every server
//! in `S_I`, await the acks — then one registration message carrying
//! `(κ, (b₁,…,b_k))` to whoever holds `List`, who appends it and
//! acknowledges with the tag `|List|`.  Because a WRITE registers only after
//! every server it touched has installed its version, `List` only ever names
//! installed versions, and a READ that fetches what `List` names never
//! waits.  What is shared here is therefore everything but the READ: the
//! wire enum [`ListMsg`], the [`Writer`], the [`Server`], the registrar
//! ([`WriteLog::append`] / [`WriteLog::tag_array`]), the `read-val` fan-out
//! and the `ReadResp` collection.  Each [`Algorithm`] adds one READ
//! procedure:
//!
//! * **A** (SNOW, MWSR): the single reader holds `List` itself, so writers
//!   register with it client-to-client (`info-reader`) and a READ is one
//!   round — look the keys up locally, `read-val(κᵢ)` to each server.  One
//!   round, one version, non-blocking: all four SNOW properties (Theorem 3).
//! * **B** (SNW + one version, MWMR): a coordinator server `s*` holds `List`
//!   (`update-coor`), which lifts the single-reader restriction and the need
//!   for client-to-client messages.  A READ is exactly two non-blocking
//!   rounds: `get-tag-arr` to `s*`, then `read-val(κᵢ)` to each server.
//! * **C** (SNW + one round, MWMR): as B, but the READ asks `s*` for the tag
//!   array and every server for its whole `Vals` set (`read-vals`) *in the
//!   same round*, and keeps, per object, the version the tag array names.
//!   The paper bounds a response at |W| + 1 versions (one per concurrent
//!   WRITE plus the stable one).  **This implementation never collects a
//!   version**, so a response carries every version ever written to the
//!   object — 118 on average at 10 000 open-loop arrivals, linear in run
//!   length (`protocols.versions_per_read`).  Reaching the paper's bound
//!   needs version garbage collection, an open question in ROADMAP.md.
//!
//! The `Vals` set travels as a copy-on-write snapshot
//! ([`snow_core::ObjectVersions::snapshot`]): the server keeps one shared
//! slice per object, in install order, rebuilt by the first `read-vals`
//! after an install, and every response until the next install is a
//! pointer to it.  The reader searches it from the newest version, where
//! the key the tag array names nearly always is: a WRITE registers only
//! after every server installed it.
//! A snapshot taken before an install never shows it — the paper's "returns
//! `Vals` as of the request" — and its length is what the instrumentation
//! counts, so sharing changes no observable quantity.  The reader files
//! each snapshot by its object's position in the READ, in one buffer it
//! reuses for every READ (a reader has one READ outstanding), and counts
//! the filled slots: a duplicated response replaces its slot and is not
//! counted twice, and the slots are released when the READ responds.
//!
//! ## A liveness edge case the paper glosses over
//!
//! Because Algorithm C's `read-vals` snapshot at server `sᵢ` and the
//! `get-tag-arr` answer at `s*` are taken at *different* moments of an
//! asynchronous execution, the coordinator may name a key `κᵢ` that the
//! (earlier) `Vals_i` snapshot does not yet contain: the reader's
//! `read-vals` can arrive at `sᵢ` *before* the WRITE's `write-val` installs
//! `κᵢ` there, while the `get-tag-arr` arrives at `s*` *after* that WRITE
//! registered.  The paper's pseudocode would return no value in that case.
//! Our implementation detects the gap and issues a *targeted second-round*
//! `read-val(κᵢ)` for exactly the missing objects, preserving safety (the
//! snapshot stays consistent at the coordinator-chosen cut) at the cost of
//! an extra round in that rare race.  `fallback_rounds()` counts how often
//! this happened; the adversarial test below shows the race is real, and the
//! benchmarks show it essentially never fires under realistic schedules
//! (once in 20 000 open-loop arrivals; `snow-workload` pins that every READ
//! the history instruments with two rounds is one of these).  ARCHITECTURE.md
//! ("Closed-loop vs open-loop benchmarking") records it as a reproduction
//! finding.

use crate::common::{KeyAllocator, PendingRead, PendingWrite, WriteLog};
use crate::AnyMsg;
use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ProcessId, ReadObjects, Result, ServerId, ShardStore,
    SnowError, SystemConfig, Tag, TxId, TxOutcome, TxSpec, Value, WriteObjects, WriteOutcome,
};
use snow_core::{Effects, MsgInfo, ProtocolMessage};
use std::sync::Arc;

/// Which READ procedure a deployment's readers run (module docs) — the only
/// thing the three algorithms do not share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The reader holds `List`: one round, one version, MWSR with C2C.
    A,
    /// `s*` holds `List`: `get-tag-arr`, then `read-val` — two rounds.
    B,
    /// `s*` holds `List`: `get-tag-arr` and `read-vals` in one round.
    C,
}

/// Messages exchanged by the family, under the paper's names.
#[derive(Debug, Clone)]
pub enum ListMsg {
    /// `write-val`: writer → server, install `(key, value)` for `object`.
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
    /// `ack`: server → writer, acknowledging a `write-val`.
    WriteAck {
        /// WRITE transaction id.
        tx: TxId,
        /// Object whose write was installed.
        object: ObjectId,
    },
    /// `info-reader`: writer → reader (client-to-client), registering the
    /// completed WRITE `(κ, objects)` with Algorithm A's `List`.
    InfoReader {
        /// WRITE transaction id.
        tx: TxId,
        /// Version key `κ`.
        key: Key,
        /// Objects the WRITE updated (the `(b₁,…,b_k)` bitmap, as a list):
        /// the writer's list, copied in place.  16 bytes here and in
        /// `update-coor`: two 48-byte variants would widen every message of
        /// the family by a word (`the_pools_working_set_cannot_silently_widen`).
        objects: WriteObjects,
    },
    /// `(ack, t_w)`: reader → writer (client-to-client), carrying the tag.
    InfoAck {
        /// WRITE transaction id.
        tx: TxId,
        /// The tag assigned (`|List|` after the append).
        tag: Tag,
    },
    /// `update-coor`: writer → coordinator `s*`, registering the completed
    /// WRITE with Algorithm B/C's `List`.
    UpdateCoor {
        /// WRITE transaction id.
        tx: TxId,
        /// Version key `κ`.
        key: Key,
        /// Objects updated by the WRITE.
        objects: WriteObjects,
    },
    /// `(ack, t_w)`: coordinator → writer.
    CoorAck {
        /// WRITE transaction id.
        tx: TxId,
        /// Tag assigned to the WRITE.
        tag: Tag,
    },
    /// `get-tag-arr`: reader → coordinator `s*` (B's first round; in C, sent
    /// in the same round as `read-vals`).
    GetTagArr {
        /// READ transaction id.
        tx: TxId,
        /// Objects the READ will fetch (used to compute `t_r`): the READ's
        /// list, copied in place.
        objects: ReadObjects,
    },
    /// `(t_r, (κ₁,…,κ_k))`: coordinator → reader.
    TagArr {
        /// READ transaction id.
        tx: TxId,
        /// The READ's tag `t_r`.
        tag: Tag,
        /// Latest key per requested object.
        keys: Vec<(ObjectId, Key)>,
    },
    /// `read-val`: reader → server, requesting the version named by `key` —
    /// A's READ, B's second round, C's targeted fallback (module docs).
    ReadVal {
        /// READ transaction id.
        tx: TxId,
        /// Object to read.
        object: ObjectId,
        /// Version key `κᵢ` taken from `List`.
        key: Key,
    },
    /// Value response: server → reader (exactly one version).
    ReadResp {
        /// READ transaction id.
        tx: TxId,
        /// Object read.
        object: ObjectId,
        /// Version key of the returned value.
        key: Key,
        /// The value.
        value: Value,
    },
    /// `read-vals`: reader → server; asks for the full `Vals` set (C).
    ReadVals {
        /// READ transaction id.
        tx: TxId,
        /// Object whose versions are requested.
        object: ObjectId,
    },
    /// Full version-set response: server → reader (C).
    ReadValsResp {
        /// READ transaction id.
        tx: TxId,
        /// Object.
        object: ObjectId,
        /// Every `(key, value)` pair the server stored for it when the
        /// request arrived, in install order: a shared
        /// [`snow_core::ObjectVersions::snapshot`], so the response (and a
        /// fault-engine duplicate of it) carries a pointer, not a copy.
        versions: Arc<[(Key, Value)]>,
    },
}

impl ProtocolMessage for ListMsg {
    #[inline]
    fn info(&self) -> MsgInfo {
        match self {
            ListMsg::WriteVal { tx, object, .. } => MsgInfo::write_request(*tx, Some(*object)),
            ListMsg::WriteAck { tx, object } => MsgInfo::write_ack(*tx, Some(*object)),
            ListMsg::InfoReader { tx, .. } | ListMsg::InfoAck { tx, .. } => {
                MsgInfo::client_to_client(Some(*tx))
            }
            ListMsg::UpdateCoor { tx, .. } => MsgInfo::write_request(*tx, None),
            ListMsg::CoorAck { tx, .. } => MsgInfo::write_ack(*tx, None),
            ListMsg::GetTagArr { tx, .. } => MsgInfo::read_request(*tx, None),
            ListMsg::TagArr { tx, .. } => MsgInfo::read_response(*tx, None, 0),
            ListMsg::ReadVal { tx, object, .. } | ListMsg::ReadVals { tx, object } => {
                MsgInfo::read_request(*tx, Some(*object))
            }
            ListMsg::ReadResp { tx, object, .. } => MsgInfo::read_response(*tx, Some(*object), 1),
            ListMsg::ReadValsResp {
                tx,
                object,
                versions,
            } => MsgInfo::read_response(*tx, Some(*object), versions.len()),
        }
    }
}

/// Emits `read-val(key)` to the server hosting `object`.
fn read_val(
    config: &SystemConfig,
    tx: TxId,
    object: ObjectId,
    key: Key,
    effects: &mut Effects<AnyMsg>,
) {
    let server = ProcessId::Server(config.server_for(object));
    effects.send(server, ListMsg::ReadVal { tx, object, key });
}

/// One in-flight READ.
#[derive(Debug)]
struct Read {
    /// The tag and the `ReadResp` collection every algorithm shares.
    collect: PendingRead,
    /// Algorithm C: the tag array's keys, held until every `Vals` set is in.
    keys: Vec<(ObjectId, Key)>,
}

/// A `Vals` snapshot, as a `read-vals` response carries it.
type Snapshot = Arc<[(Key, Value)]>;

/// A reader client.
#[derive(Debug)]
pub struct Reader {
    id: ClientId,
    config: SystemConfig,
    algorithm: Algorithm,
    list_at: ProcessId,
    /// `Some` iff this reader holds `List` (Algorithm A).
    log: Option<WriteLog>,
    pending: Option<Read>,
    /// Algorithm C: the pending READ's `Vals` snapshots, by position in its
    /// objects — one buffer for every READ, emptied when a READ ends.
    vals: Vec<Option<Snapshot>>,
    /// How many slots of `vals` are filled.
    vals_in: usize,
    fallback_rounds: u64,
}

impl Reader {
    /// Creates a reader running `algorithm`'s READ against the `List` held
    /// by `list_at` — itself in Algorithm A, `s*` in B and C.
    pub fn new(
        id: ClientId,
        algorithm: Algorithm,
        list_at: ProcessId,
        config: SystemConfig,
    ) -> Self {
        let holds_list = list_at == ProcessId::Client(id);
        Reader {
            id,
            algorithm,
            list_at,
            log: holds_list.then(|| WriteLog::new(config.objects())),
            config,
            pending: None,
            vals: Vec::new(),
            vals_in: 0,
            fallback_rounds: 0,
        }
    }

    /// Number of Algorithm C READs (so far) that needed the targeted
    /// second-round fallback because a coordinator-named version was
    /// missing from a first-round `Vals` snapshot.
    pub fn fallback_rounds(&self) -> u64 {
        self.fallback_rounds
    }

    /// The in-flight READ, if it is `tx`.
    fn current(&mut self, tx: TxId) -> Option<&mut Read> {
        self.pending.as_mut().filter(|p| p.collect.tx == tx)
    }

    fn start_read(&mut self, tx: TxId, objects: ReadObjects, effects: &mut Effects<AnyMsg>) {
        let mut collect = PendingRead::new(tx, objects);
        let objects = &collect.objects;
        match self.algorithm {
            Algorithm::A => {
                let log = self.log.as_ref().expect("Algorithm A's reader holds List");
                let (tag, keys) = log.tag_array(objects);
                collect.tag = Some(tag);
                for (object, key) in keys {
                    read_val(&self.config, tx, object, key, effects);
                }
            }
            Algorithm::B => {
                let objects = objects.clone();
                effects.send(self.list_at, ListMsg::GetTagArr { tx, objects });
            }
            Algorithm::C => {
                // One round: tag array and version sets requested in parallel.
                let get_tag_arr = ListMsg::GetTagArr {
                    tx,
                    objects: objects.clone(),
                };
                effects.send(self.list_at, get_tag_arr);
                for &object in objects {
                    let server = ProcessId::Server(self.config.server_for(object));
                    effects.send(server, ListMsg::ReadVals { tx, object });
                }
                debug_assert!(self.vals.is_empty(), "one READ at a time");
                self.vals.resize(objects.len(), None);
            }
        }
        self.pending = Some(Read {
            collect,
            keys: Vec::new(),
        });
    }

    /// Algorithm C: files `object`'s `Vals` snapshot in its slot if `tx` is
    /// the pending READ, and says whether it was.  A duplicate response
    /// replaces the snapshot and is not counted again.
    fn file_vals(&mut self, tx: TxId, object: ObjectId, versions: Snapshot) -> bool {
        let Some(read) = self.pending.as_ref().filter(|p| p.collect.tx == tx) else {
            return false;
        };
        let slot = read.collect.objects.iter().position(|&o| o == object);
        let slot = slot.expect("a `Vals` set answers an object the READ asked for");
        if self.vals[slot].replace(versions).is_none() {
            self.vals_in += 1;
        }
        true
    }

    /// Algorithm C: once the tag array and every `Vals` set are in, picks
    /// each named version out of its snapshot; a version the snapshot
    /// predates is fetched by a targeted `read-val` (module docs).
    fn resolve_from_vals(&mut self, effects: &mut Effects<AnyMsg>) {
        let Some(read) = self.pending.as_mut() else {
            return;
        };
        if read.collect.tag.is_none() || self.vals_in < read.collect.objects.len() {
            return;
        }
        let mut fell_back = false;
        // Taken, so a late duplicate of a `Vals` response looks up nothing.
        for (object, key) in std::mem::take(&mut read.keys) {
            let slot = read.collect.objects.iter().position(|&o| o == object);
            let slot = slot.expect("the tag array names the READ's objects");
            let versions = self.vals[slot].as_deref().expect("every `Vals` set is in");
            // Snapshots are in install order, and the tag array names a
            // recently registered WRITE: search from the newest version.
            match versions.iter().rev().find(|&&(k, _)| k == key) {
                Some(&(_, value)) => read.collect.record(ObjectRead { object, key, value }),
                None => {
                    fell_back = true;
                    read_val(&self.config, read.collect.tx, object, key, effects);
                }
            }
        }
        self.fallback_rounds += u64::from(fell_back);
        self.respond_if_complete(effects);
    }

    /// RESPs once a value is in for every requested object.
    fn respond_if_complete(&mut self, effects: &mut Effects<AnyMsg>) {
        if let Some(read) = self.pending.take_if(|p| p.collect.is_complete()) {
            self.end_read();
            effects.respond(read.collect.tx, read.collect.into_outcome());
        }
    }

    /// Releases the `Vals` snapshots of the READ that just ended, keeping
    /// the buffer for the next one.
    fn end_read(&mut self) {
        self.vals.clear();
        self.vals_in = 0;
    }
}

/// A writer client: the family's one WRITE procedure.
#[derive(Debug)]
pub struct Writer {
    id: ClientId,
    config: SystemConfig,
    list_at: ProcessId,
    keys: KeyAllocator,
    pending: Option<PendingWrite>,
}

impl Writer {
    /// Creates a writer that registers its WRITEs with the `List` held by
    /// `list_at` — the reader in Algorithm A, `s*` in B and C.
    pub fn new(id: ClientId, list_at: ProcessId, config: SystemConfig) -> Self {
        Writer {
            id,
            config,
            list_at,
            keys: KeyAllocator::new(id),
            pending: None,
        }
    }
}

/// A storage server.  The coordinator `s*` of Algorithms B and C
/// additionally holds `List`.
#[derive(Debug)]
pub struct Server {
    id: ServerId,
    store: ShardStore,
    /// `Some` iff this server is the coordinator `s*`.
    log: Option<WriteLog>,
}

impl Server {
    /// Creates a server; `coordinator` marks whether it is `s*`.
    pub fn new(id: ServerId, config: &SystemConfig, coordinator: bool) -> Self {
        Server {
            id,
            store: ShardStore::new(config.objects_on(id)),
            log: coordinator.then(|| WriteLog::new(config.objects())),
        }
    }
}

/// A process of an Algorithm A, B or C deployment.
#[derive(Debug)]
pub enum ListNode {
    /// A reader client.
    Reader(Reader),
    /// A writer client.
    Writer(Writer),
    /// A storage server (possibly the coordinator).
    Server(Server),
}

impl ListNode {
    /// `|List|` if this process holds it (1 = only the initial entry).
    pub fn list_len(&self) -> Option<usize> {
        match self {
            ListNode::Reader(r) => r.log.as_ref().map(WriteLog::len),
            ListNode::Server(s) => s.log.as_ref().map(WriteLog::len),
            ListNode::Writer(_) => None,
        }
    }

    /// The identity of this process.
    pub(crate) fn id(&self) -> ProcessId {
        match self {
            ListNode::Reader(r) => ProcessId::Client(r.id),
            ListNode::Writer(w) => ProcessId::Client(w.id),
            ListNode::Server(s) => ProcessId::Server(s.id),
        }
    }

    /// The INV handler, run by `AnyNode`.
    pub(crate) fn handle_invoke(&mut self, tx: TxId, spec: TxSpec, effects: &mut Effects<AnyMsg>) {
        match (self, spec) {
            (ListNode::Reader(r), TxSpec::Read(read)) => {
                assert!(
                    r.pending.is_none(),
                    "reader invoked while a READ is outstanding"
                );
                r.start_read(tx, read.objects, effects);
            }
            (ListNode::Writer(w), TxSpec::Write(write)) => {
                assert!(
                    w.pending.is_none(),
                    "writer invoked while a WRITE is outstanding"
                );
                let key = w.keys.allocate();
                w.pending = Some(PendingWrite::new(tx, key, write.objects()));
                for &(object, value) in &write.writes {
                    let server = ProcessId::Server(w.config.server_for(object));
                    effects.send(
                        server,
                        ListMsg::WriteVal {
                            tx,
                            object,
                            key,
                            value,
                        },
                    );
                }
            }
            (ListNode::Reader(_), TxSpec::Write(_)) => {
                panic!("readers only execute READ transactions")
            }
            (ListNode::Writer(_), TxSpec::Read(_)) => {
                panic!("writers only execute WRITE transactions")
            }
            (ListNode::Server(_), _) => panic!("servers do not accept invocations"),
        }
    }

    /// The delivery handler, run by `AnyNode`.
    pub(crate) fn handle_message(
        &mut self,
        from: ProcessId,
        msg: ListMsg,
        effects: &mut Effects<AnyMsg>,
    ) {
        match (self, msg) {
            // ---- the WRITE, the same in all three algorithms ----------------
            (
                ListNode::Server(server),
                ListMsg::WriteVal {
                    tx,
                    object,
                    key,
                    value,
                },
            ) => {
                server.store.install(object, key, value);
                effects.send(from, ListMsg::WriteAck { tx, object });
            }
            (ListNode::Writer(writer), ListMsg::WriteAck { tx, object }) => {
                let Some(pending) = writer.pending.as_mut().filter(|p| p.tx == tx) else {
                    return;
                };
                if !pending.registering && pending.ack(object) {
                    pending.registering = true;
                    let (key, objects) = (pending.key, pending.objects.clone());
                    let register = match writer.list_at {
                        ProcessId::Client(_) => ListMsg::InfoReader { tx, key, objects },
                        ProcessId::Server(_) => ListMsg::UpdateCoor { tx, key, objects },
                    };
                    effects.send(writer.list_at, register);
                }
            }
            (
                ListNode::Reader(Reader { log: Some(log), .. }),
                ListMsg::InfoReader { tx, key, objects },
            ) => {
                let tag = log.append(key, &objects);
                effects.send(from, ListMsg::InfoAck { tx, tag });
            }
            (
                ListNode::Server(Server { log: Some(log), .. }),
                ListMsg::UpdateCoor { tx, key, objects },
            ) => {
                let tag = log.append(key, &objects);
                effects.send(from, ListMsg::CoorAck { tx, tag });
            }
            (
                ListNode::Writer(writer),
                ListMsg::InfoAck { tx, tag } | ListMsg::CoorAck { tx, tag },
            ) => {
                if let Some(pending) = writer.pending.take_if(|p| p.tx == tx) {
                    let outcome = WriteOutcome {
                        key: pending.key,
                        tag: Some(tag),
                    };
                    effects.respond(tx, TxOutcome::Write(outcome));
                }
            }
            // ---- the READs --------------------------------------------------
            (
                ListNode::Server(Server { log: Some(log), .. }),
                ListMsg::GetTagArr { tx, objects },
            ) => {
                let (tag, keys) = log.tag_array(&objects);
                effects.send(from, ListMsg::TagArr { tx, tag, keys });
            }
            (ListNode::Server(server), ListMsg::ReadVal { tx, object, key }) => {
                // On the paper's reliable network `List` only names installed
                // versions.  Under the fault engine the install can die
                // (dropped `write-val`, server crash with state loss) after
                // the WRITE registered; a server that never installed the
                // named version cannot answer and stays silent — the
                // orphaned READ is retired as Aborted at quiescence.
                if let Some(value) = server.store.get(object, &key) {
                    let resp = ListMsg::ReadResp {
                        tx,
                        object,
                        key,
                        value,
                    };
                    effects.send(from, resp);
                }
            }
            (ListNode::Server(server), ListMsg::ReadVals { tx, object }) => {
                let versions = server
                    .store
                    .object_mut(object)
                    .map(|o| o.snapshot())
                    .unwrap_or_default();
                let resp = ListMsg::ReadValsResp {
                    tx,
                    object,
                    versions,
                };
                effects.send(from, resp);
            }
            (ListNode::Reader(reader), ListMsg::TagArr { tx, tag, keys }) => {
                let algorithm = reader.algorithm;
                // The first tag array is the READ's cut; a duplicate of
                // `get-tag-arr` answered later names another one.
                let Some(read) = reader.current(tx).filter(|r| r.collect.tag.is_none()) else {
                    return;
                };
                read.collect.tag = Some(tag);
                if algorithm == Algorithm::C {
                    read.keys = keys;
                    reader.resolve_from_vals(effects);
                } else {
                    for (object, key) in keys {
                        read_val(&reader.config, tx, object, key, effects);
                    }
                }
            }
            (
                ListNode::Reader(reader),
                ListMsg::ReadValsResp {
                    tx,
                    object,
                    versions,
                },
            ) => {
                if reader.file_vals(tx, object, versions) {
                    reader.resolve_from_vals(effects);
                }
            }
            (
                ListNode::Reader(reader),
                ListMsg::ReadResp {
                    tx,
                    object,
                    key,
                    value,
                },
            ) => {
                if let Some(read) = reader.current(tx) {
                    read.collect.record(ObjectRead { object, key, value });
                    reader.respond_if_complete(effects);
                }
            }
            (node, other) => panic!("{} received unexpected message {other:?}", node.id()),
        }
    }

    /// Drops a client's in-flight state for the aborted `tx`.
    pub(crate) fn abort(&mut self, tx: TxId) {
        match self {
            ListNode::Reader(r) => {
                if r.pending.take_if(|p| p.collect.tx == tx).is_some() {
                    r.end_read();
                }
            }
            ListNode::Writer(w) => drop(w.pending.take_if(|p| p.tx == tx)),
            ListNode::Server(_) => {}
        }
    }
}

/// The coordinator `s*` of an Algorithm B or C deployment: server 0.
pub const COORDINATOR: ServerId = ServerId(0);

/// Builds the deployment of `algorithm` for `config`.
///
/// Algorithm A requires (returned as errors) exactly one reader (MWSR) and
/// client-to-client communication; B and C take any number of readers and
/// writers and need no C2C.
pub fn deploy(algorithm: Algorithm, config: &SystemConfig) -> Result<Vec<ListNode>> {
    config.validate().map_err(SnowError::InvalidConfig)?;
    let list_at = if algorithm == Algorithm::A {
        if config.num_readers != 1 {
            return Err(SnowError::InvalidConfig(format!(
                "Algorithm A requires exactly one reader (MWSR); got {}",
                config.num_readers
            )));
        }
        if !config.c2c_allowed {
            return Err(SnowError::C2cDisallowed);
        }
        ProcessId::Client(config.readers().next().expect("one reader"))
    } else {
        ProcessId::Server(COORDINATOR)
    };
    let readers = config
        .readers()
        .map(|r| ListNode::Reader(Reader::new(r, algorithm, list_at, config.clone())));
    let writers = config
        .writers()
        .map(|w| ListNode::Writer(Writer::new(w, list_at, config.clone())));
    let servers = config
        .servers()
        .map(|s| ListNode::Server(Server::new(s, config, ProcessId::Server(s) == list_at)));
    Ok(readers.chain(writers).chain(servers).collect())
}

/// Test bodies, written once over the three algorithms.  The `#[test]`
/// entry points are the table at the foot of `lib.rs`, which keeps one
/// module per algorithm so each test id names the algorithm it exercises.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{AnyNode, ProtocolKind};
    use snow_core::Process;
    use snow_sim::{LatencyScheduler, RandomScheduler, Scheduler, Simulation, StepOutcome};
    use std::ops::RangeInclusive;

    /// What a READ of `algorithm` must look like to the instrumentation.
    pub(crate) struct Shape {
        pub(crate) rounds: RangeInclusive<u32>,
        /// Versions per response after one WRITE per object.
        pub(crate) versions: usize,
        /// Client-to-client messages of one WRITE.
        pub(crate) write_c2c: u32,
    }

    /// `algorithm`'s configuration: MWSR with C2C for A (one reader,
    /// whatever `readers` says), MWMR without for B and C.
    fn config(algorithm: Algorithm, servers: u32, writers: u32, readers: u32) -> SystemConfig {
        match algorithm {
            Algorithm::A => SystemConfig::mwsr(servers, writers, true),
            _ => SystemConfig::mwmr(servers, writers, readers),
        }
    }

    fn build<S: Scheduler<AnyMsg>>(
        algorithm: Algorithm,
        config: &SystemConfig,
        scheduler: S,
    ) -> Simulation<AnyNode, S> {
        let protocol = match algorithm {
            Algorithm::A => ProtocolKind::AlgA,
            Algorithm::B => ProtocolKind::AlgB,
            Algorithm::C => ProtocolKind::AlgC,
        };
        crate::any::tests::simulation(protocol, config, scheduler)
    }

    fn write(writes: &[(u32, u64)]) -> TxSpec {
        TxSpec::write(
            writes
                .iter()
                .map(|&(o, v)| (ObjectId(o), Value(v)))
                .collect(),
        )
    }

    fn read(objects: &[u32]) -> TxSpec {
        TxSpec::read(objects.iter().map(|&o| ObjectId(o)).collect())
    }

    /// The process holding `List`.
    fn list_holder(algorithm: Algorithm, config: &SystemConfig) -> ProcessId {
        match algorithm {
            Algorithm::A => ProcessId::Client(config.readers().next().unwrap()),
            _ => ProcessId::Server(COORDINATOR),
        }
    }

    pub(crate) fn deploy_requirements(algorithm: Algorithm) {
        let invalid = SystemConfig {
            num_servers: 0,
            num_objects: 0,
            num_readers: 1,
            num_writers: 1,
            c2c_allowed: true,
        };
        assert!(deploy(algorithm, &invalid).is_err());
        let no_c2c = deploy(algorithm, &SystemConfig::mwsr(2, 1, false));
        let many_readers = deploy(algorithm, &SystemConfig::mwmr(2, 4, 4));
        if algorithm == Algorithm::A {
            assert!(matches!(no_c2c, Err(SnowError::C2cDisallowed)));
            assert!(matches!(many_readers, Err(SnowError::InvalidConfig(_))));
        } else {
            assert!(no_c2c.is_ok() && many_readers.is_ok());
        }
    }

    pub(crate) fn read_after_write(algorithm: Algorithm, shape: Shape) {
        let config = config(algorithm, 2, 1, 1);
        let mut sim = build(algorithm, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        let w = sim.invoke_at(0, writer, write(&[(0, 10), (1, 20)]));
        assert!(sim.run_until_complete(w));
        let r = sim.invoke_now(reader, read(&[0, 1]));
        assert!(sim.run_until_complete(r));

        let history = sim.history();
        let rec = history.get(r).unwrap();
        let outcome = rec.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(10)));
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value(20)));
        assert_eq!(outcome.tag, Some(Tag(2)));
        // The algorithm's latency shape; every READ is non-blocking and
        // itself uses no client-to-client message.
        assert!(shape.rounds.contains(&rec.rounds), "rounds {}", rec.rounds);
        assert_eq!(rec.max_versions_per_read(), shape.versions);
        assert!(rec.all_reads_nonblocking());
        assert_eq!(rec.c2c_messages, 0);
        // A's WRITE registers client-to-client (info-reader / ack).
        let wrote = history.get(w).unwrap();
        assert_eq!(wrote.c2c_messages, shape.write_c2c);
        assert_eq!(wrote.outcome.as_ref().unwrap().tag(), Some(Tag(2)));
    }

    pub(crate) fn unwritten_objects_read_initial_values(algorithm: Algorithm) {
        let config = config(algorithm, 4, 1, 1);
        let mut sim = build(algorithm, &config, RandomScheduler::new(5));
        let reader = config.readers().next().unwrap();
        let r = sim.invoke_at(0, reader, read(&[1, 3]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let outcome = h
            .get(r)
            .unwrap()
            .outcome
            .as_ref()
            .unwrap()
            .as_read()
            .unwrap();
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value::INITIAL));
        assert_eq!(outcome.value_for(ObjectId(3)), Some(Value::INITIAL));
        assert_eq!(outcome.tag, Some(Tag::INITIAL));
    }

    pub(crate) fn concurrent_transactions_complete(algorithm: Algorithm, shape: Shape) {
        let config = config(algorithm, 3, 2, 2);
        let writers: Vec<_> = config.writers().collect();
        for seed in 0..10u64 {
            let mut sim = build(algorithm, &config, RandomScheduler::new(seed));
            let mut txs = vec![
                sim.invoke_at(0, writers[0], write(&[(0, 1), (2, 3)])),
                sim.invoke_at(1, writers[1], write(&[(0, 4), (1, 2)])),
            ];
            for (i, reader) in config.readers().enumerate() {
                txs.push(sim.invoke_at(2 + i as u64, reader, read(&[i as u32, i as u32 + 1])));
            }
            sim.run_until_quiescent();
            for tx in txs {
                assert!(sim.is_complete(tx), "seed {seed}: {tx} incomplete");
            }
            for r in sim.history().reads() {
                assert!(
                    shape.rounds.contains(&r.rounds),
                    "seed {seed}: rounds {}",
                    r.rounds
                );
                if shape.versions == 1 {
                    assert_eq!(r.max_versions_per_read(), 1, "seed {seed}");
                }
                assert!(r.all_reads_nonblocking(), "seed {seed}");
            }
        }
    }

    pub(crate) fn one_writers_tags_increase(algorithm: Algorithm) {
        let config = config(algorithm, 2, 1, 1);
        let mut sim = build(algorithm, &config, RandomScheduler::new(3));
        let writer = config.writers().next().unwrap();
        let mut last_tag = Tag(0);
        for i in 1..=4u64 {
            let w = sim.invoke_now(writer, write(&[(0, i)]));
            assert!(sim.run_until_complete(w));
            let tag = sim
                .history()
                .get(w)
                .unwrap()
                .outcome
                .as_ref()
                .unwrap()
                .tag()
                .unwrap();
            assert!(tag > last_tag);
            last_tag = tag;
        }
        assert_eq!(last_tag, Tag(5));
    }

    pub(crate) fn list_totally_orders_concurrent_writes(algorithm: Algorithm) {
        let config = config(algorithm, 2, 3, 1);
        let mut sim = build(algorithm, &config, RandomScheduler::new(7));
        let txs: Vec<_> = config
            .writers()
            .enumerate()
            .map(|(i, w)| sim.invoke_at(i as u64, w, write(&[(i as u32 % 2, i as u64 + 1)])))
            .collect();
        sim.run_until_quiescent();
        let h = sim.history();
        let mut tags: Vec<Tag> = txs
            .iter()
            .map(|tx| h.get(*tx).unwrap().outcome.as_ref().unwrap().tag().unwrap())
            .collect();
        tags.sort();
        assert_eq!(tags, [Tag(2), Tag(3), Tag(4)], "one tag per WRITE, no gaps");
        let Some(AnyNode::List(holder)) = sim.process(list_holder(algorithm, &config)) else {
            panic!("{algorithm:?}: no List holder");
        };
        assert_eq!(holder.list_len(), Some(4));
    }

    pub(crate) fn c_returns_every_version_ever_written() {
        let config = SystemConfig::mwmr(1, 1, 1);
        let mut sim = build(Algorithm::C, &config, RandomScheduler::new(1));
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();
        for i in 1..=5u64 {
            let w = sim.invoke_now(writer, write(&[(0, i)]));
            assert!(sim.run_until_complete(w));
        }
        let r = sim.invoke_now(reader, read(&[0]));
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let rec = h.get(r).unwrap();
        // 5 writes + the initial version.
        assert_eq!(rec.max_versions_per_read(), 6);
        let outcome = rec.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(0)), Some(Value(5)));
    }

    fn fallbacks(sim: &Simulation<AnyNode, impl Scheduler<AnyMsg>>, reader: ClientId) -> u64 {
        match sim.process(ProcessId::Client(reader)).unwrap() {
            AnyNode::List(ListNode::Reader(r)) => r.fallback_rounds(),
            other => panic!("expected a reader, found {other:?}"),
        }
    }

    /// The adversarial schedule from the module documentation: the
    /// coordinator learns about a WRITE before one of its servers' `Vals`
    /// snapshots does, forcing the reader into the targeted fallback round.
    pub(crate) fn c_adversarial_schedule_triggers_the_fallback() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut sim = build(Algorithm::C, &config, LatencyScheduler::fifo());
        let writer = config.writers().next().unwrap();
        let reader = config.readers().next().unwrap();

        // The WRITE touches only object 1 (hosted on non-coordinator s1).
        let w = sim.invoke_at(0, writer, write(&[(1, 7)]));
        let r = sim.invoke_at(0, reader, read(&[1]));

        // Dispatch both invocations without delivering anything yet.
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));
        assert!(matches!(sim.step(), StepOutcome::Invoked(_)));

        // 1. Deliver the reader's read-vals to s1 *before* the write-val:
        //    the Vals snapshot misses the new version.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::List(ListMsg::ReadVals { .. })))
            .is_some());
        // 2. Let the WRITE finish completely (write-val, ack, update-coor,
        //    ack) while continuing to hold back the reader's get-tag-arr.
        while !sim.is_complete(w) {
            assert!(sim
                .deliver_where(|p| !matches!(p.msg, AnyMsg::List(ListMsg::GetTagArr { .. })))
                .is_some());
        }
        // 3. Only now deliver the reader's get-tag-arr: the coordinator names
        //    the new key, which the Vals snapshot lacks.
        assert!(sim
            .deliver_where(|p| matches!(p.msg, AnyMsg::List(ListMsg::GetTagArr { .. })))
            .is_some());
        // Finish the run: the reader must fall back and still return the new value.
        assert!(sim.run_until_complete(r));
        let h = sim.history();
        let rec = h.get(r).unwrap();
        let outcome = rec.outcome.as_ref().unwrap().as_read().unwrap();
        assert_eq!(outcome.value_for(ObjectId(1)), Some(Value(7)));
        assert_eq!(rec.rounds, 2, "fallback adds a round in this race");
        assert_eq!(fallbacks(&sim, reader), 1);
    }

    pub(crate) fn c_benign_schedules_never_fall_back() {
        let config = SystemConfig::mwmr(2, 2, 1);
        let reader = config.readers().next().unwrap();
        let writers: Vec<_> = config.writers().collect();
        let mut sim = build(Algorithm::C, &config, RandomScheduler::new(42));
        for i in 0..6u64 {
            let w = sim.invoke_now(writers[(i % 2) as usize], write(&[((i % 2) as u32, i)]));
            assert!(sim.run_until_complete(w));
            let r = sim.invoke_now(reader, read(&[0, 1]));
            assert!(sim.run_until_complete(r));
        }
        assert_eq!(fallbacks(&sim, reader), 0);
    }

    /// Drives one reader by hand: a 2-object READ is answered by two tag
    /// arrays — `get-tag-arr` was duplicated and a WRITE of both objects
    /// registered between the copies — and every `read-val` it sends is
    /// answered with the key it names.  Whatever the READ returns must be
    /// one of the two cuts, never a mix.
    #[test]
    fn a_duplicated_tag_array_cannot_mix_two_cuts() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let (reader, coordinator) = (ClientId(0), ProcessId::Server(COORDINATOR));
        let (tx, objects) = (TxId(1), vec![ObjectId(0), ObjectId(1)]);
        let (old, new) = (Key::initial(), Key::new(1, ClientId(1)));
        let cut = |tag, key| {
            let keys = objects.iter().map(|&o| (o, key)).collect();
            AnyMsg::List(ListMsg::TagArr { tx, tag, keys })
        };

        let reader = Reader::new(reader, Algorithm::B, coordinator, config);
        let mut node = AnyNode::List(ListNode::Reader(reader));
        let mut effects = Effects::new(0);
        node.on_invoke(tx, TxSpec::read(objects.clone()), &mut effects);
        node.on_message(coordinator, cut(Tag(1), old), &mut effects);
        node.on_message(coordinator, cut(Tag(2), new), &mut effects);
        let (sends, _) = effects.into_parts();
        let requests = sends.into_iter().filter_map(|(to, msg)| match msg {
            AnyMsg::List(ListMsg::ReadVal { object, key, .. }) => Some((to, object, key)),
            _ => None,
        });
        // Object 0's newest request is answered first, object 1's oldest.
        let (mut o0, o1): (Vec<_>, Vec<_>) = requests.partition(|r| r.1 == ObjectId(0));
        o0.reverse();

        let mut effects = Effects::new(1);
        for (server, object, key) in o0.into_iter().chain(o1) {
            let resp = ListMsg::ReadResp {
                tx,
                object,
                key,
                value: Value(key.seq),
            };
            node.on_message(server, resp.into(), &mut effects);
        }
        let responses: Vec<_> = effects.drain_responses().collect();
        let [(_, TxOutcome::Read(outcome))] = responses.as_slice() else {
            panic!("the READ responds once, found {responses:?}");
        };
        let keys: Vec<Key> = outcome.reads.iter().map(|r| r.key).collect();
        let returned = (outcome.tag, keys);
        let cuts = [(Some(Tag(1)), vec![old; 2]), (Some(Tag(2)), vec![new; 2])];
        assert!(cuts.contains(&returned), "RESP {returned:?} mixes two cuts");
    }

    /// Drives one Algorithm C reader by hand: object 0's `Vals` set arrives
    /// twice before object 1's, so counting responses instead of objects
    /// would resolve with object 1 missing.  The READ waits for both and
    /// returns the versions the tag array names; a duplicate delivered
    /// after its RESP is ignored, and the snapshots are released at RESP.
    #[test]
    fn c_waits_for_every_vals_set_when_one_arrives_twice() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let (reader, coordinator) = (ClientId(0), ProcessId::Server(COORDINATOR));
        let (tx, objects) = (TxId(1), vec![ObjectId(0), ObjectId(1)]);
        let new = Key::new(1, ClientId(1));
        let server = |object| ProcessId::Server(config.server_for(object));
        let vals = |object, value| {
            let versions = [(Key::initial(), Value::INITIAL), (new, Value(value))];
            let versions = versions.as_slice().into();
            AnyMsg::List(ListMsg::ReadValsResp { tx, object, versions })
        };

        let reader = Reader::new(reader, Algorithm::C, coordinator, config.clone());
        let mut node = AnyNode::List(ListNode::Reader(reader));
        let mut effects = Effects::new(0);
        node.on_invoke(tx, TxSpec::read(objects.clone()), &mut effects);
        let keys = objects.iter().map(|&o| (o, new)).collect();
        let tag_arr = AnyMsg::List(ListMsg::TagArr { tx, tag: Tag(2), keys });
        node.on_message(coordinator, tag_arr, &mut effects);
        node.on_message(server(ObjectId(0)), vals(ObjectId(0), 10), &mut effects);
        node.on_message(server(ObjectId(0)), vals(ObjectId(0), 10), &mut effects);
        assert_eq!(effects.drain_responses().count(), 0, "object 1's `Vals` set is still out");
        node.on_message(server(ObjectId(1)), vals(ObjectId(1), 20), &mut effects);
        let responses: Vec<_> = effects.drain_responses().collect();
        let [(_, TxOutcome::Read(outcome))] = responses.as_slice() else {
            panic!("the READ responds once, found {responses:?}");
        };
        let reads: Vec<_> = outcome.reads.iter().map(|r| (r.object, r.key, r.value)).collect();
        assert_eq!(outcome.tag, Some(Tag(2)));
        assert_eq!(reads, [(ObjectId(0), new, Value(10)), (ObjectId(1), new, Value(20))]);

        node.on_message(server(ObjectId(0)), vals(ObjectId(0), 10), &mut effects);
        let AnyNode::List(ListNode::Reader(reader)) = &node else { unreachable!() };
        assert!(reader.pending.is_none() && reader.vals.is_empty(), "{reader:?}");
        let (sends, responses) = effects.into_parts();
        assert!(responses.is_empty(), "a duplicate after RESP answers nothing");
        // `get-tag-arr`, then `read-vals` in object order; no fallback.
        let sent: Vec<_> = sends.iter().map(|(to, msg)| (*to, msg.info().object)).collect();
        let read_vals = objects.iter().map(|&o| (server(o), Some(o)));
        assert_eq!(sent, [(coordinator, None)].into_iter().chain(read_vals).collect::<Vec<_>>());
    }
}
