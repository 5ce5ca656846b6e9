//! State shared by several protocols: the ordered WRITE log (`List`), and
//! the client-side bookkeeping for in-flight READ and WRITE transactions.

use snow_core::{
    ClientId, Key, ObjectId, ObjectRead, ReadObjects, ReadOutcome, Tag, TxId, TxOutcome, WriteObjects,
};

/// The ordered list of completed WRITE transactions — the paper's `List`
/// variable, kept by the reader in Algorithm A and by the coordinator `s*`
/// in Algorithms B and C.
///
/// Entry `j` (0-based) is kept as the key of the `j`-th registered WRITE;
/// the entry's *tag* is `j + 1`, so the initial entry `κ₀` carries
/// `Tag(1) = Tag::INITIAL`.  The entry's object bits `(b₁,…,b_k)` are not
/// kept: all a READ asks of them is `j* = max{ j : List[j].b_i = 1 }`, and
/// a dense per-object index holds exactly that — `List[j*].κ` with its tag
/// — updated as each entry is appended.  `List[0]` covers every object,
/// so an object no entry wrote (inside the initial set or not) reads `κ₀`.
///
/// `List` holds each key once.  A registration looks its key up through a
/// per-writer table of the highest `seq` registered, sized once for the
/// deployment's client ids: a key above its writer's is new, and is
/// appended without a search.  In a fault-free run no registration
/// searches, since each writer registers its WRITEs once each and in `seq`
/// order; a duplicate, a late registration or a writer outside the table
/// does.
#[derive(Debug, Clone)]
pub struct WriteLog {
    /// `List[j].κ`, in registration order.
    keys: Vec<Key>,
    /// `(List[j*].κ, Tag(j* + 1))`, indexed by object id.
    latest: Vec<(Key, Tag)>,
    /// Indexed by writer id: the highest `seq` registered by that writer,
    /// 0 if none (no real WRITE's key has `seq` 0).  No key of the writer
    /// above it is in `List`.
    newest: Vec<u64>,
    /// How many keys of `List` the registrations searched, over the log's
    /// life: the cost the table saves, and a cost counter for the tests.
    scanned: u64,
}

/// The index entry of an object only the initial entry covers.
const INITIAL_ENTRY: (Key, Tag) = (Key::initial(), Tag::INITIAL);

impl WriteLog {
    /// Creates the initial log: a single entry `(κ₀, objects)` covering every
    /// object in the system, with a writer table for the writer ids
    /// `0 .. writers`, allocated once, here.  A writer past it registers
    /// by searching `List`.
    pub fn new(all_objects: impl IntoIterator<Item = ObjectId>, writers: u32) -> Self {
        let objects = all_objects.into_iter().map(|o| o.0 as usize + 1).max().unwrap_or(0);
        WriteLog {
            keys: vec![Key::initial()],
            latest: vec![INITIAL_ENTRY; objects],
            newest: vec![0; writers as usize],
            scanned: 0,
        }
    }

    /// Appends a completed WRITE `(key, objects)` and returns its tag
    /// (`|List|` after the append, as in the paper).  Only the key is kept;
    /// `objects` moves each object's index entry to the new one.
    ///
    /// Idempotent: a key already in `List` keeps the tag it was given.
    /// Under at-least-once delivery a late duplicate of an old WRITE's
    /// registration would otherwise become the latest entry of its objects
    /// again — a WRITE with two tags, and READs ordered after it twice.
    ///
    /// A key above its writer's entry in the table is not in `List`: one
    /// index, no search.  Any other key (a duplicate, a late registration,
    /// a writer the table does not cover) is searched for, exactly, from
    /// the newest entry back.  A writer's entries are not in key order once
    /// a registration arrives late, so the search cannot stop at the
    /// writer's newest entry below `key`: a key not in `List` costs a scan
    /// of all of it.
    pub fn append(&mut self, key: Key, objects: &[ObjectId]) -> Tag {
        match self.newest.get_mut(key.writer.0 as usize) {
            Some(newest) if key.seq > *newest => *newest = key.seq,
            _ => {
                let found = self.keys.iter().rposition(|k| *k == key);
                self.scanned += (self.keys.len() - found.unwrap_or(0)) as u64;
                if let Some(registered) = found {
                    return Tag(registered as u64 + 1);
                }
            }
        }
        self.keys.push(key);
        let tag = Tag(self.keys.len() as u64);
        for object in objects {
            let index = object.0 as usize;
            if self.latest.len() <= index {
                self.latest.resize(index + 1, INITIAL_ENTRY);
            }
            self.latest[index] = (key, tag);
        }
        tag
    }

    /// Number of entries (`|List|`); never 0, the initial entry stays.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// How many keys of `List` the registrations so far searched: 0 while
    /// every key registered was above its writer's newest.
    pub fn scanned_keys(&self) -> u64 {
        self.scanned
    }

    /// The key of the latest entry that updated `object`
    /// (`κ_i = List[j*].κ` with `j* = max{ j : List[j].b_i = 1 }`), together
    /// with that entry's tag: one index.  The initial entry when the object
    /// was never written (or never registered), matching the paper's
    /// convention that `List[0]` covers all objects.
    pub fn latest_for(&self, object: ObjectId) -> (Key, Tag) {
        self.latest.get(object.0 as usize).copied().unwrap_or(INITIAL_ENTRY)
    }

    /// The per-object latest keys for a set of objects plus the read tag
    /// `t_r` — what the coordinator returns to `get-tag-arr` (and what the
    /// Algorithm A reader computes locally).
    ///
    /// The read tag is `|List|` at lookup time.  This is the serialization
    /// point the Lemma 20 argument needs: it is monotone across the reads a
    /// reader issues (P2) and, because `latest_for` already selects the
    /// newest registered key per object, every returned version is the
    /// latest write with tag ≤ `t_r` touching that object (P4).
    pub fn tag_array(&self, objects: &[ObjectId]) -> (Tag, Vec<(ObjectId, Key)>) {
        let keys = objects.iter().map(|&o| (o, self.latest_for(o).0)).collect();
        (Tag(self.keys.len() as u64), keys)
    }
}

/// Client-side bookkeeping for one in-flight READ transaction.
#[derive(Debug, Clone)]
pub struct PendingRead {
    /// The transaction id.
    pub tx: TxId,
    /// The objects the READ must return, in caller order (the spec's list,
    /// moved in: in place, like the spec's).
    pub objects: ReadObjects,
    /// Values collected so far.
    pub collected: Vec<ObjectRead>,
    /// The tag this READ serializes at (filled in when known).
    pub tag: Option<Tag>,
}

impl PendingRead {
    /// Starts tracking a READ over `objects`.  `collected` is sized for one
    /// read per object: it becomes the outcome's reads, which the record
    /// keeps for the rest of the run.
    pub fn new(tx: TxId, objects: ReadObjects) -> Self {
        PendingRead {
            tx,
            collected: Vec::with_capacity(objects.len()),
            objects,
            tag: None,
        }
    }

    /// Records one returned object read.  A second response for the same
    /// object — a duplicate under at-least-once delivery — is ignored.
    pub fn record(&mut self, read: ObjectRead) {
        if self.collected.iter().any(|r| r.object == read.object) {
            return;
        }
        self.collected.push(read);
    }

    /// True once a value has been collected for every requested object.
    pub fn is_complete(&self) -> bool {
        self.collected.len() == self.objects.len()
    }

    /// Assembles the final outcome, ordering reads as the caller requested:
    /// `collected` is reordered in place and becomes the outcome's reads.
    pub fn into_outcome(mut self) -> TxOutcome {
        let mut placed = 0;
        for o in &self.objects {
            if let Some(pos) = self.collected[placed..].iter().position(|r| r.object == *o) {
                self.collected.swap(placed, placed + pos);
                placed += 1;
            }
        }
        self.collected.truncate(placed);
        TxOutcome::Read(ReadOutcome {
            reads: self.collected,
            tag: self.tag,
        })
    }
}

/// Client-side bookkeeping for one in-flight WRITE transaction.
#[derive(Debug, Clone)]
pub struct PendingWrite {
    /// The transaction id.
    pub tx: TxId,
    /// The key generated for this WRITE.
    pub key: Key,
    /// The objects being written, the acked ones first (in ack order):
    /// `objects[acked..]` still await their `write-val` ack.  In place:
    /// `update-coor` / `info-reader` carry a copy of it.
    pub objects: WriteObjects,
    /// How many objects have acked.
    pub acked: usize,
    /// Whether the second phase (`info-reader` / `update-coor`) has started.
    pub registering: bool,
}

impl PendingWrite {
    /// Starts tracking a WRITE of `objects` under `key`.
    pub fn new(tx: TxId, key: Key, objects: WriteObjects) -> Self {
        PendingWrite {
            tx,
            key,
            objects,
            acked: 0,
            registering: false,
        }
    }

    /// Records an ack from the server hosting `object`: an outstanding
    /// object moves into the acked prefix.  Returns `true` when every
    /// object has acked — how every writer in the crate decides its
    /// `write-val` phase is over.  A duplicated ack changes nothing.
    pub fn ack(&mut self, object: ObjectId) -> bool {
        if let Some(pos) = self.objects[self.acked..].iter().position(|&o| o == object) {
            self.objects.swap(self.acked, self.acked + pos);
            self.acked += 1;
        }
        self.acked == self.objects.len()
    }
}

/// Allocates per-writer keys: `κ = (z+1, w)` with a local counter `z`.
#[derive(Debug, Clone)]
pub struct KeyAllocator {
    writer: ClientId,
    z: u64,
}

impl KeyAllocator {
    /// Creates an allocator for `writer` with `z = 0`.
    pub fn new(writer: ClientId) -> Self {
        KeyAllocator { writer, z: 0 }
    }

    /// Allocates the next key.
    pub fn allocate(&mut self) -> Key {
        self.z += 1;
        Key::new(self.z, self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snow_core::hash::SplitMix;
    use snow_core::Value;

    fn objs(ids: &[u32]) -> Vec<ObjectId> {
        ids.iter().map(|i| ObjectId(*i)).collect()
    }

    #[test]
    fn write_log_initial_covers_all_objects() {
        let log = WriteLog::new(objs(&[0, 1, 2]), 8);
        assert_eq!(log.len(), 1);
        for o in objs(&[0, 1, 2]) {
            let (k, t) = log.latest_for(o);
            assert!(k.is_initial());
            assert_eq!(t, Tag::INITIAL);
        }
    }

    #[test]
    fn write_log_append_and_latest() {
        let mut log = WriteLog::new(objs(&[0, 1]), 8);
        let k1 = Key::new(1, ClientId(5));
        let t1 = log.append(k1, &objs(&[0]));
        assert_eq!(t1, Tag(2));
        let k2 = Key::new(1, ClientId(6));
        let t2 = log.append(k2, &objs(&[0, 1]));
        assert_eq!(t2, Tag(3));
        assert_eq!(log.latest_for(ObjectId(0)), (k2, Tag(3)));
        // A duplicate of the first registration changes nothing.
        assert_eq!(log.append(k1, &objs(&[0])), Tag(2));
        assert_eq!(log.latest_for(ObjectId(0)), (k2, Tag(3)));
        assert_eq!(log.latest_for(ObjectId(1)), (k2, Tag(3)));
        // Object never written keeps κ0.
        assert_eq!(log.latest_for(ObjectId(9)).0, Key::initial());
        assert_eq!(log.len(), 3);
    }

    /// A late registration puts a writer's entries out of key order; a
    /// duplicate of its newer WRITE's registration must still find that
    /// WRITE's entry, not append a second one.
    #[test]
    fn a_duplicate_after_a_late_registration_keeps_its_tag() {
        let mut log = WriteLog::new(objs(&[0]), 8);
        let w = ClientId(5);
        assert_eq!(log.append(Key::new(1, w), &objs(&[0])), Tag(2));
        assert_eq!(log.append(Key::new(3, w), &objs(&[0])), Tag(3));
        assert_eq!(log.append(Key::new(2, w), &objs(&[0])), Tag(4), "late");
        assert_eq!(log.append(Key::new(3, w), &objs(&[0])), Tag(3), "duplicate");
        assert_eq!(log.len(), 4);
        assert_eq!(log.latest_for(ObjectId(0)), (Key::new(2, w), Tag(4)));
    }

    #[test]
    fn tag_array_takes_per_object_latest_and_max_tag() {
        let mut log = WriteLog::new(objs(&[0, 1, 2]), 8);
        let ka = Key::new(1, ClientId(5));
        log.append(ka, &objs(&[0]));
        let kb = Key::new(2, ClientId(5));
        log.append(kb, &objs(&[1]));
        let (tag, keys) = log.tag_array(&objs(&[0, 1, 2]));
        assert_eq!(tag, Tag(3));
        assert_eq!(keys[0], (ObjectId(0), ka));
        assert_eq!(keys[1], (ObjectId(1), kb));
        assert_eq!(keys[2], (ObjectId(2), Key::initial()));
    }

    /// `List` as it was kept before the per-object index: every entry with
    /// its object list, `j*` found by scanning back from the newest entry.
    struct ScanLog {
        entries: Vec<(Key, Vec<ObjectId>)>,
    }

    impl ScanLog {
        fn new(all_objects: Vec<ObjectId>) -> Self {
            ScanLog { entries: vec![(Key::initial(), all_objects)] }
        }

        /// The paper's rule: a key's tag is its position, and `List` holds
        /// each key once.
        fn append(&mut self, key: Key, objects: &[ObjectId]) -> Tag {
            let index = match self.entries.iter().position(|(k, _)| *k == key) {
                Some(registered) => registered,
                None => {
                    self.entries.push((key, objects.to_vec()));
                    self.entries.len() - 1
                }
            };
            Tag(index as u64 + 1)
        }

        fn latest_for(&self, object: ObjectId) -> (Key, Tag) {
            for (idx, (key, objects)) in self.entries.iter().enumerate().rev() {
                if objects.contains(&object) {
                    return (*key, Tag(idx as u64 + 1));
                }
            }
            (Key::initial(), Tag::INITIAL)
        }

        fn tag_array(&self, objects: &[ObjectId]) -> (Tag, Vec<(ObjectId, Key)>) {
            let keys = objects.iter().map(|&o| (o, self.latest_for(o).0)).collect();
            (Tag(self.entries.len() as u64), keys)
        }
    }

    /// Object ids drawn by the reference test; those at or past the initial
    /// set's size are outside it.
    const DRAWN_OBJECTS: u64 = 9;

    /// Writers in the reference test, with ids spread over `0 .. 3·WRITERS`;
    /// the writer table covers the first `WRITERS` ids or more, so some
    /// writers are always in it and, unless it covers all, some past it.
    const WRITERS: u64 = 64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random registration sequences — 64 writers with sparse ids
        /// interleaved, duplicates of earlier registrations, WRITEs whose
        /// registration was lost or arrives after a newer one of the same
        /// writer, a duplicate of that newer one after such a late
        /// registration, objects outside the initial set, writer ids past
        /// the writer table — give the reference's tags, `latest_for`,
        /// `tag_array` and `len` after every append, and `List` never holds
        /// a key twice: the table's appends and the search behind it both
        /// agree with `ScanLog`.
        #[test]
        fn write_log_agrees_with_the_reverse_scan_reference(
            seed in 0u64..u64::MAX,
            initial in 1u32..6,
            table in WRITERS as u32..3 * WRITERS as u32 + 1,
        ) {
            let mut rng = SplitMix::new(seed);
            let ids: Vec<ClientId> =
                (0..WRITERS).map(|w| ClientId((3 * w + rng.below(3)) as u32)).collect();
            let all: Vec<ObjectId> = (0..initial).map(ObjectId).collect();
            let (mut log, mut reference) = (WriteLog::new(all.clone(), table), ScanLog::new(all));
            let mut seqs = [0u64; WRITERS as usize];
            let mut registered: Vec<(Key, Vec<ObjectId>)> = Vec::new();
            // Keys skipped on registration: each is older than its writer's
            // newest from the moment it is skipped.
            let mut lost: Vec<(Key, Vec<ObjectId>)> = Vec::new();
            // After a late registration, its writer's newest registered
            // key, to be registered again.
            let mut after_late: Vec<(Key, Vec<ObjectId>)> = Vec::new();
            let (mut fast, mut searched, mut duplicated_after_late) = (0, 0, 0);
            // 240 draws, then every duplicate still queued.
            for step in 0.. {
                let draw = match step {
                    0..240 => rng.below(10),
                    _ if !after_late.is_empty() => 3,
                    _ => break,
                };
                let (key, objects) = match draw {
                    0 | 1 if !registered.is_empty() => {
                        registered[rng.below(registered.len() as u64) as usize].clone()
                    }
                    2 if !lost.is_empty() => {
                        let late = lost.swap_remove(rng.below(lost.len() as u64) as usize);
                        let newer = registered
                            .iter()
                            .filter(|(k, _)| k.writer == late.0.writer && k.seq > late.0.seq)
                            .max_by_key(|(k, _)| k.seq);
                        after_late.extend(newer.cloned());
                        registered.push(late.clone());
                        late
                    }
                    3 if !after_late.is_empty() => {
                        duplicated_after_late += 1;
                        after_late.swap_remove(rng.below(after_late.len() as u64) as usize)
                    }
                    _ => {
                        let writer = rng.below(WRITERS) as usize;
                        let mut objects = Vec::new();
                        for _ in 0..1 + rng.below(3) {
                            let object = ObjectId(rng.below(DRAWN_OBJECTS) as u32);
                            if !objects.contains(&object) {
                                objects.push(object);
                            }
                        }
                        // One in six is a WRITE whose registration has not
                        // arrived (yet): the writer moves on past it.
                        seqs[writer] += 1;
                        let key = Key::new(seqs[writer], ids[writer]);
                        if rng.below(6) == 0 {
                            lost.push((key, objects));
                            continue;
                        }
                        registered.push((key, objects.clone()));
                        (key, objects)
                    }
                };
                let at = format!("seed {seed}, step {step}, {key:?}");
                let before = log.scanned_keys();
                prop_assert_eq!(log.append(key, &objects), reference.append(key, &objects), "{}", at);
                if log.scanned_keys() == before { fast += 1 } else { searched += 1 }
                prop_assert_eq!(log.len(), reference.entries.len(), "{}", at);
                // Every key registered once or more, each once, and κ₀.
                prop_assert_eq!(log.len(), registered.len() + 1, "{}: a key twice", at);
                for object in (0..DRAWN_OBJECTS as u32 + 2).map(ObjectId) {
                    prop_assert_eq!(log.latest_for(object), reference.latest_for(object), "{}", at);
                }
                let asked: Vec<ObjectId> = (0..DRAWN_OBJECTS as u32)
                    .filter(|_| rng.below(2) == 0)
                    .map(ObjectId)
                    .collect();
                prop_assert_eq!(log.tag_array(&asked), reference.tag_array(&asked), "{}", at);
            }
            // Both paths ran: the table's appends, and the search behind it;
            // and the duplicate after a late registration was drawn.
            prop_assert!(fast > 0 && searched > 0, "seed {}: {} fast, {} searched", seed, fast, searched);
            prop_assert!(duplicated_after_late > 0, "seed {}: no duplicate after a late registration", seed);
        }
    }

    #[test]
    fn pending_read_collects_and_orders() {
        let mut pr = PendingRead::new(TxId(1), objs(&[1, 0]).into());
        assert!(!pr.is_complete());
        pr.record(ObjectRead {
            object: ObjectId(0),
            key: Key::initial(),
            value: Value(7),
        });
        // Duplicate for the same object is ignored.
        pr.record(ObjectRead {
            object: ObjectId(0),
            key: Key::initial(),
            value: Value(8),
        });
        assert_eq!(pr.collected.len(), 1);
        pr.record(ObjectRead {
            object: ObjectId(1),
            key: Key::initial(),
            value: Value(9),
        });
        assert!(pr.is_complete());
        pr.tag = Some(Tag(4));
        let outcome = pr.into_outcome();
        let read = outcome.as_read().unwrap();
        // Caller asked for [1, 0]; outcome respects that order.
        assert_eq!(read.reads[0].object, ObjectId(1));
        assert_eq!(read.reads[1].object, ObjectId(0));
        assert_eq!(read.reads[1].value, Value(7));
        assert_eq!(read.tag, Some(Tag(4)));
    }

    #[test]
    fn pending_write_tracks_acks() {
        let mut pw = PendingWrite::new(TxId(2), Key::new(1, ClientId(3)), objs(&[0, 1]).into());
        assert!(!pw.ack(ObjectId(0)));
        assert!(!pw.ack(ObjectId(0))); // duplicate ack changes nothing
        assert!(pw.ack(ObjectId(1)));
        assert!(pw.ack(ObjectId(1))); // so does a late one
        assert_eq!(pw.acked, 2);
    }

    #[test]
    fn key_allocator_is_monotonic_and_writer_scoped() {
        let mut a = KeyAllocator::new(ClientId(2));
        let k1 = a.allocate();
        let k2 = a.allocate();
        assert_eq!(k1, Key::new(1, ClientId(2)));
        assert_eq!(k2, Key::new(2, ClientId(2)));
        assert!(k1 < k2);
    }
}
