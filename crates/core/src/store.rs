//! The versioned object store kept by a storage server (shard).
//!
//! In the paper each server `sᵢ` maintains a set variable
//! `Vals ⊆ K × Vᵢ` of `(key, value)` pairs, initially `{(κ₀, v⁰ᵢ)}`
//! (Algorithms A, B, C all share this layout).  [`ObjectVersions`] is exactly
//! that set for one object; [`ShardStore`] groups the objects hosted by one
//! server, which generalizes the paper's one-object-per-server presentation
//! to realistic multi-object shards without changing any protocol logic.
//!
//! A WRITE installs its version at every server before it registers in
//! `List`, so the version a READ asks for is nearly always one of the
//! newest a server installed.  [`ObjectVersions`] therefore keeps `Vals` as
//! a log in install order, `κ₀` first, and searches it newest-first: in the
//! repo benchmark at seed 1, a lookup on the three-site WAN finds its key
//! within the newest three versions 93 % of the time (never deeper than
//! the seventh), in one DC with 64 writers never deeper than the 48th, and
//! an Algorithm C reader finds its key in the newest version of its
//! snapshot 98 % of the time.  The log grows by blocks that double in
//! capacity and never move (block `k` holds `4·2ᵏ` versions), so growth
//! copies nothing and never holds two copies of one object's versions.
//! An install is an append: in a fault-free run a writer starts its next
//! WRITE only after every server acknowledged the previous one, so its
//! keys reach an object in `seq` order, and a key above its writer's
//! high-water mark at the object cannot be in the log yet.  Any other
//! install (a fault-engine duplicate, say) finds its key first and
//! overwrites in place; correctness never depends on the order, only the
//! fast path does.
//!
//! A lookup goes through the writer's mark first: the marks table is
//! indexed by writer id, and each writer's entry also holds the slots of
//! its newest version here and of the one it marked before, so the two
//! keys a writer installed last are found in O(1), however many other
//! writers installed after them, and `κ₀` is always slot 0.  Those are the
//! keys a READ asks for whenever the writer has not moved on, or moved on
//! by one WRITE: in one DC with 64 writers interleaving at each object,
//! the newest-first search from the log's end reached the newest one only
//! after 13.4 versions on average.  In the repo benchmark at seed 1, the
//! mark answers 82.5 % of the `read-val` lookups there, the previous mark
//! 13.9 % and `κ₀`'s slot 3.4 %; none falls back to that search, nor any
//! on the three-site WAN.  A deployed server sizes each object's table
//! once, for the deployment's client ids, so an install never allocates
//! for it; a store built without that size grows the table on a new
//! writer's first install.

use crate::ids::ObjectId;
use crate::key::Key;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The capacity of the log's first block; block `k` holds
/// `FIRST_BLOCK << k` versions.
const FIRST_BLOCK: usize = 4;

/// The block table's first capacity: 8 blocks hold 1 020 versions.
const TABLE: usize = 8;

/// The writer ids a marks table can index: `0 .. 2²⁰` (16 MiB of marks
/// per object at the limit).
const MAX_WRITERS: usize = 1 << 20;

/// One writer's high-water mark at an object: the highest `seq` it
/// installed there, the slot (install index) of that version, and the slot
/// of the version it marked before (0, `κ₀`'s slot, if none).  `seq` 0 is
/// no mark: no real WRITE's key has it.  16 bytes, as the `(writer, seq)`
/// pair it replaced was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Mark {
    seq: u64,
    slot: u32,
    prev: u32,
}

/// Where the `i`-th version installed lies: `(block, index in it)`.  Block
/// `k` starts at `FIRST_BLOCK · (2ᵏ − 1)`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let k = (i / FIRST_BLOCK + 1).ilog2() as usize;
    (k, i - FIRST_BLOCK * ((1 << k) - 1))
}

/// The multi-version state of a single object: the paper's `Vals` set, kept
/// as a log in install order (module docs).
#[derive(Debug, Clone)]
pub struct ObjectVersions {
    /// Every version installed here, in install order, `κ₀` first.  Block
    /// `k` is allocated at `FIRST_BLOCK << k` versions when the one before
    /// it is full, and only its last one is ever short.
    blocks: Vec<Vec<(Key, Value)>>,
    /// Indexed by writer id: the highest `seq` the writer installed here,
    /// that version's slot and its previous mark's.  No key of that writer
    /// above the mark is in the log, so installing one is an append with
    /// no search, and looking either marked key up is one index.  A writer
    /// past the table's end, or with `seq` 0 in it, has the mark 0, which
    /// no real WRITE's key reaches.
    marks: Vec<Mark>,
    /// The version installed most recently at this server, in arrival
    /// order.  Only used by baselines (Eiger-style / simple reads);
    /// Algorithms A, B and C always read by explicit key.
    latest: (Key, Value),
    /// The log as one shared slice — what Algorithm C's `read-vals` answers
    /// with.  Built by the first [`ObjectVersions::snapshot`] after an
    /// install and dropped by the next install, so a READ costs a reference
    /// count, not a copy of every version stored, and a store nobody
    /// snapshots (every other protocol) pays one `None` store per install.
    /// A cache: never part of equality.
    snapshot: Option<Arc<[(Key, Value)]>>,
}

/// Two stores are equal when they hold the same versions, installed in the
/// same order, and the same latest one.
impl PartialEq for ObjectVersions {
    fn eq(&self, other: &Self) -> bool {
        (&self.blocks, self.latest) == (&other.blocks, other.latest)
    }
}
impl Eq for ObjectVersions {}

impl ObjectVersions {
    /// Creates the initial state `{(κ₀, v⁰)}`, with an empty marks table
    /// that grows on each new writer's first install.
    pub fn new() -> Self {
        Self::with_writers(0)
    }

    /// Creates the initial state `{(κ₀, v⁰)}`, with a marks table for the
    /// writer ids `0 .. writers` allocated once, here: installs by those
    /// writers never allocate for it.
    ///
    /// # Panics
    /// Panics if `writers` is past the table's limit of 2²⁰.
    pub fn with_writers(writers: usize) -> Self {
        assert!(writers <= MAX_WRITERS, "{writers} writers exceed the marks table's 2²⁰ limit");
        let initial = (Key::initial(), Value::INITIAL);
        let mut first = Vec::with_capacity(FIRST_BLOCK);
        first.push(initial);
        let mut blocks = Vec::with_capacity(TABLE);
        blocks.push(first);
        ObjectVersions {
            blocks,
            marks: vec![Mark::default(); writers],
            latest: initial,
            snapshot: None,
        }
    }

    /// Installs a new version `(key, value)` — the server-side effect of a
    /// `write-val` message.  Returns `true` if the key was not present
    /// before; a key that was keeps its place in the log and takes the new
    /// value.
    ///
    /// # Panics
    /// Panics if `key` is above its writer's mark and the writer's id is
    /// 2²⁰ or more (`κ₀`'s writer never has a mark: its `seq` is 0).
    #[inline]
    pub fn install(&mut self, key: Key, value: Value) -> bool {
        self.latest = (key, value);
        // Snapshots already handed out keep the `Vals` of their request.
        self.snapshot = None;
        let writer = key.writer.0 as usize;
        let mark = self.marks.get(writer).copied().unwrap_or_default();
        if key.seq > mark.seq {
            let slot = u32::try_from(self.version_count()).expect("under 2³² versions");
            if writer >= self.marks.len() {
                self.widen(writer);
            }
            self.marks[writer] = Mark { seq: key.seq, slot, prev: mark.slot };
        } else if let Some(i) = self.position(&key) {
            let (k, j) = locate(i);
            self.blocks[k][j].1 = value;
            return false;
        }
        self.append((key, value));
        true
    }

    /// Grows the marks table to index `writer`: a store built without a
    /// size, at a writer's first install.
    #[cold]
    fn widen(&mut self, writer: usize) {
        assert!(writer < MAX_WRITERS, "writer id {writer} reaches the marks table's 2²⁰ limit");
        self.marks.resize(writer + 1, Mark::default());
    }

    /// Appends `version` to the log, opening the next block when the last
    /// one is full.
    fn append(&mut self, version: (Key, Value)) {
        let last = self.blocks.len() - 1;
        let capacity = FIRST_BLOCK << last;
        if self.blocks[last].len() < capacity {
            self.blocks[last].push(version);
        } else {
            let mut next = Vec::with_capacity(capacity * 2);
            next.push(version);
            self.blocks.push(next);
        }
    }

    /// The slot of `key`'s version, if installed: `κ₀`'s is 0, one of the
    /// two keys its writer marked last is found through the mark, O(1), and
    /// any other by searching the log newest version first.
    #[inline]
    fn position(&self, key: &Key) -> Option<usize> {
        if key.is_initial() {
            return Some(0);
        }
        if let Some(mark) = self.marks.get(key.writer.0 as usize).filter(|m| m.seq != 0) {
            if mark.seq == key.seq {
                debug_assert_eq!(self.at(mark.slot as usize).0, *key, "a mark names its version");
                return Some(mark.slot as usize);
            }
            if self.at(mark.prev as usize).0 == *key {
                return Some(mark.prev as usize);
            }
        }
        self.search(key)
    }

    /// The slot of `key`'s version, if installed, searching the log newest
    /// version first: the lookups the marks do not answer, kept out of
    /// line so that [`ObjectVersions::position`] inlines.
    fn search(&self, key: &Key) -> Option<usize> {
        self.newest_first().find(|&(_, (k, _))| k == key).map(|(i, _)| i)
    }

    /// The log with each version's slot, newest version first.
    #[inline]
    fn newest_first(&self) -> impl Iterator<Item = (usize, &(Key, Value))> + '_ {
        self.blocks.iter().enumerate().rev().flat_map(|(k, block)| {
            let start = FIRST_BLOCK * ((1 << k) - 1);
            block.iter().enumerate().rev().map(move |(j, version)| (start + j, version))
        })
    }

    /// The `i`-th version installed (0 is `κ₀`).
    #[inline]
    fn at(&self, i: usize) -> (Key, Value) {
        let (k, j) = locate(i);
        self.blocks[k][j]
    }

    /// Looks up the value stored under `key` (the `read-val` handler):
    /// through its writer's marks, else newest version first.
    #[inline]
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.position(key).map(|i| self.at(i).1)
    }

    /// The key installed most recently at this server (arrival order).
    #[inline]
    pub fn latest_key(&self) -> Key {
        self.latest.0
    }

    /// The value installed most recently at this server.
    #[inline]
    pub fn latest_value(&self) -> Value {
        self.latest.1
    }

    /// All `(key, value)` pairs — the full `Vals` set.  Borrowing iterator
    /// in install order, `κ₀` first, for callers that only inspect or
    /// count versions; Algorithm C's `read-vals` handler, which must hand
    /// the set to a message, takes [`ObjectVersions::snapshot`] instead.
    pub fn all_versions(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.blocks.iter().flatten().copied()
    }

    /// The full `Vals` set as of this call, in install order (so a reader
    /// finds the version it wants by searching from the end), shared: every
    /// snapshot taken between two installs is the same allocation, and a
    /// later [`ObjectVersions::install`] never shows through one taken
    /// before it.  Built in one allocation.
    #[inline]
    pub fn snapshot(&mut self) -> Arc<[(Key, Value)]> {
        match &self.snapshot {
            Some(shared) => Arc::clone(shared),
            None => {
                // An exact-size iterator, so the slice is allocated once
                // at its length.
                let shared: Arc<[(Key, Value)]> =
                    (0..self.version_count()).map(|i| self.at(i)).collect();
                self.snapshot = Some(Arc::clone(&shared));
                shared
            }
        }
    }

    /// Number of versions currently stored (≥ 1: the initial version never
    /// leaves the set).
    #[inline]
    pub fn version_count(&self) -> usize {
        let last = self.blocks.len() - 1;
        FIRST_BLOCK * ((1 << last) - 1) + self.blocks[last].len()
    }

    /// True if a version with `key` has been installed.
    #[inline]
    pub fn contains(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }
}

impl Default for ObjectVersions {
    fn default() -> Self {
        Self::new()
    }
}

/// The state of one storage server: the versioned stores of every object it
/// hosts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStore {
    objects: BTreeMap<ObjectId, ObjectVersions>,
}

impl ShardStore {
    /// Creates a store hosting the given objects, each at its initial
    /// version, with a marks table for the writer ids `0 .. writers`
    /// ([`ObjectVersions::with_writers`]): a deployment's servers pass its
    /// client count.
    pub fn new(objects: impl IntoIterator<Item = ObjectId>, writers: u32) -> Self {
        ShardStore {
            objects: objects
                .into_iter()
                .map(|o| (o, ObjectVersions::with_writers(writers as usize)))
                .collect(),
        }
    }

    /// The versioned state of `object`, if hosted here.
    #[inline]
    pub fn object(&self, object: ObjectId) -> Option<&ObjectVersions> {
        self.objects.get(&object)
    }

    /// Mutable access to the versioned state of `object`, if hosted here.
    #[inline]
    pub fn object_mut(&mut self, object: ObjectId) -> Option<&mut ObjectVersions> {
        self.objects.get_mut(&object)
    }

    /// Installs `(key, value)` for `object`, creating the object lazily if it
    /// was not declared up front (useful for dynamically sized workloads).
    #[inline]
    pub fn install(&mut self, object: ObjectId, key: Key, value: Value) {
        self.objects.entry(object).or_default().install(key, value);
    }

    /// Reads `object` at `key`.
    #[inline]
    pub fn get(&self, object: ObjectId, key: &Key) -> Option<Value> {
        self.objects.get(&object).and_then(|o| o.get(key))
    }

    /// True if `object` is hosted by this shard.
    #[inline]
    pub fn hosts(&self, object: ObjectId) -> bool {
        self.objects.contains_key(&object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix;
    use crate::ids::ClientId;
    use proptest::prelude::*;

    #[test]
    fn object_versions_start_with_initial() {
        let ov = ObjectVersions::new();
        assert_eq!(ov.version_count(), 1);
        assert_eq!(ov.get(&Key::initial()), Some(Value::INITIAL));
        assert_eq!(ov.latest_key(), Key::initial());
        assert_eq!(ov.latest_value(), Value::INITIAL);
    }

    #[test]
    fn install_adds_versions_and_updates_latest() {
        let mut ov = ObjectVersions::new();
        let k1 = Key::new(1, ClientId(0));
        assert!(ov.install(k1, Value(10)));
        assert_eq!(ov.version_count(), 2);
        assert_eq!(ov.get(&k1), Some(Value(10)));
        assert_eq!(ov.latest_key(), k1);
        assert_eq!(ov.latest_value(), Value(10));
        // Re-installing the same key is idempotent in size.
        assert!(!ov.install(k1, Value(10)));
        assert_eq!(ov.version_count(), 2);
        // The initial version is never evicted.
        assert_eq!(ov.get(&Key::initial()), Some(Value::INITIAL));
        assert!(ov.contains(&k1));
    }

    #[test]
    fn all_versions_returns_full_set() {
        let mut ov = ObjectVersions::new();
        ov.install(Key::new(1, ClientId(0)), Value(1));
        ov.install(Key::new(2, ClientId(0)), Value(2));
        let all: Vec<(Key, Value)> = ov.all_versions().collect();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(Key::initial(), Value::INITIAL)));
        assert!(all.contains(&(Key::new(2, ClientId(0)), Value(2))));
    }

    #[test]
    fn snapshot_is_the_vals_set_in_install_order() {
        let mut ov = ObjectVersions::new();
        // Installed out of key order, by two writers whose sequence numbers
        // interleave: the snapshot keeps arrival order, `κ₀` first.
        let installs = [(3, 0), (1, 1), (2, 0), (1, 0)].map(|(seq, writer)| {
            (
                Key::new(seq, ClientId(writer)),
                Value(seq * 10 + writer as u64),
            )
        });
        for (key, value) in installs {
            ov.install(key, value);
        }
        let snapshot = ov.snapshot();
        assert_eq!(snapshot[0], (Key::initial(), Value::INITIAL));
        assert_eq!(snapshot[1..], installs);
        assert_eq!(snapshot.to_vec(), ov.all_versions().collect::<Vec<_>>());
        assert_eq!(snapshot.len(), ov.version_count());
        // Between installs every snapshot is the same allocation.
        assert!(Arc::ptr_eq(&snapshot, &ov.snapshot()));
    }

    #[test]
    fn a_snapshot_never_sees_a_later_install() {
        let mut ov = ObjectVersions::new();
        let (k1, k2) = (Key::new(1, ClientId(0)), Key::new(2, ClientId(0)));
        ov.install(k1, Value(10));
        let before = ov.snapshot();
        ov.install(k2, Value(20));
        assert_eq!(before.to_vec(), vec![(Key::initial(), Value::INITIAL), (k1, Value(10))]);
        assert_eq!(ov.snapshot().last(), Some(&(k2, Value(20))));
        // Re-installing an existing key refreshes the value the next
        // snapshot carries, and still not the ones already handed out.
        let stale = ov.snapshot();
        assert!(!ov.install(k1, Value(11)));
        assert_eq!(stale[1], (k1, Value(10)));
        assert_eq!(ov.snapshot()[1], (k1, Value(11)));
    }

    #[test]
    fn installs_build_no_snapshot_until_someone_asks() {
        // Every protocol but Algorithm C installs and never snapshots: the
        // cache must stay empty, whatever the number of installs.
        let mut ov = ObjectVersions::new();
        for seq in 1..=50 {
            ov.install(Key::new(seq, ClientId(0)), Value(seq));
            assert!(ov.snapshot.is_none());
        }
        assert_eq!(ov.snapshot().len(), 51);
        // The cache is not part of the value.
        let mut twin = ObjectVersions::new();
        for seq in 1..=50 {
            twin.install(Key::new(seq, ClientId(0)), Value(seq));
        }
        assert_eq!(ov, twin);
    }

    /// Checks `ov` against the ordered map it stands for, through every
    /// view; `latest` is the last install.  Each writer's entry in the
    /// marks table names the version of its highest `seq` and the one it
    /// marked before — its highest among the versions installed before
    /// the marked one, or `κ₀`'s slot 0 — and a lookup of either through
    /// the table finds what the newest-first search finds; a writer with
    /// no version here has no mark.
    fn agrees(ov: &mut ObjectVersions, model: &BTreeMap<Key, Value>, latest: (Key, Value)) {
        assert_eq!(ov.version_count(), model.len());
        let log: Vec<(Key, Value)> = ov.all_versions().collect();
        let highest = |writer: ClientId, before: usize| {
            let mine = log[..before].iter().enumerate().filter(|(_, (k, _))| {
                k.writer == writer && !k.is_initial()
            });
            mine.max_by_key(|(_, (k, _))| k.seq).map(|(i, (k, _))| (i, *k))
        };
        let writers: std::collections::BTreeSet<ClientId> =
            log.iter().filter(|(k, _)| !k.is_initial()).map(|(k, _)| k.writer).collect();
        let marked = ov.marks.iter().filter(|&&mark| mark != Mark::default()).count();
        assert_eq!(marked, writers.len(), "a mark for each writer that installed here");
        for &writer in &writers {
            let mark = ov.marks[writer.0 as usize];
            let (slot, key) = highest(writer, log.len()).expect("a version of the writer's");
            assert_eq!((mark.seq, mark.slot as usize), (key.seq, slot), "the mark is the highest");
            let prev = highest(writer, slot).map_or(0, |(i, _)| i);
            assert_eq!(mark.prev as usize, prev, "the previous mark of {writer}");
            for i in [slot, prev] {
                let key = log[i].0;
                let scanned = ov.search(&key);
                assert_eq!((ov.position(&key), scanned), (Some(i), Some(i)));
                assert_eq!(ov.get(&key), Some(model[&key]));
            }
        }
        assert_eq!((ov.latest_key(), ov.latest_value()), latest);
        let mut set: Vec<_> = ov.snapshot().to_vec();
        assert_eq!(set, log, "install order");
        set.sort();
        assert_eq!(set, model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    }

    /// The writer ids the model test draws from: sparse, low and high, and
    /// past a sized table's end (`a_writer_at_the_limit_installs` takes
    /// the highest the table indexes).
    const WRITER_IDS: [u32; 7] = [0, 1, 5, 63, 64, 4_000, 70_000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The log is the map it replaced: fresh installs from several
        /// writers with sparse ids, low and high, into a table sized at
        /// construction or grown on the way, re-installs of present keys
        /// (in place, with a new value; `κ₀` among them), keys installed
        /// below their writer's mark (a skipped `seq` filled in late),
        /// lookups of present and absent keys and of `κ₀`, past the third
        /// block.  A snapshot is the set as of its call and never shows a
        /// later install; a copy grows on its own.
        #[test]
        fn object_versions_agree_with_an_ordered_map(
            seed in 0u64..u64::MAX,
            versions in 1usize..200,
            writers in 1usize..6,
            sized in 0usize..80,
        ) {
            let mut rng = SplitMix::new(seed);
            // A store sized for the ids below `sized`; each writer is a
            // draw from `WRITER_IDS`, the largest rarely (its table is
            // 1.1 MB).
            let mut ov = ObjectVersions::with_writers(sized);
            let pick = |rng: &mut SplitMix| match rng.below(16) {
                0 => WRITER_IDS[WRITER_IDS.len() - 1],
                d => WRITER_IDS[d as usize % (WRITER_IDS.len() - 1)],
            };
            let ids: Vec<ClientId> = (0..writers).map(|_| ClientId(pick(&mut rng))).collect();
            let mut model = BTreeMap::from([(Key::initial(), Value::INITIAL)]);
            let mut latest = (Key::initial(), Value::INITIAL);
            // Per writer, the last `seq` drawn, and the ones it skipped
            // (a writer drawn twice shares one counter).
            let mut next: BTreeMap<ClientId, u64> = ids.iter().map(|&w| (w, 0)).collect();
            let mut skipped: Vec<Key> = Vec::new();
            // Snapshots taken along the way, each with the map as of its call.
            let mut taken = Vec::new();
            while model.len() < versions {
                let writer = ids[rng.below(writers as u64) as usize];
                let value = Value(rng.below(1_000));
                let key = match rng.below(8) {
                    // A present key again (`κ₀` included).
                    0 | 1 => *model.keys().nth(rng.below(model.len() as u64) as usize).unwrap(),
                    // A skipped `seq`, below its writer's mark.
                    2 if !skipped.is_empty() => {
                        skipped.swap_remove(rng.below(skipped.len() as u64) as usize)
                    }
                    // The writer's next WRITE, now and then skipping a `seq`.
                    _ => {
                        let seq = next.get_mut(&writer).unwrap();
                        if rng.below(3) == 0 {
                            *seq += 1;
                            skipped.push(Key::new(*seq, writer));
                        }
                        *seq += 1;
                        Key::new(*seq, writer)
                    }
                };
                let fresh = model.insert(key, value).is_none();
                prop_assert_eq!(ov.install(key, value), fresh);
                latest = (key, value);
                prop_assert!(ov.contains(&key));
                prop_assert_eq!(ov.get(&key), Some(value));
                if rng.below(4) == 0 {
                    taken.push((ov.snapshot(), model.clone()));
                }
            }
            agrees(&mut ov, &model, latest);
            prop_assert!(versions <= 12 || ov.blocks.len() >= 3, "{} blocks", ov.blocks.len());
            for (snapshot, then) in &taken {
                let mut set = snapshot.to_vec();
                set.sort();
                prop_assert_eq!(set, then.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
            }
            // Every key a writer might name: present, skipped, above its
            // mark, of a writer never seen (inside the table and past its
            // end), and `κ₀`.
            let unseen = WRITER_IDS.iter().map(|&w| ClientId(w)).filter(|w| !next.contains_key(w));
            for (writer, last) in next.iter().map(|(&w, &n)| (w, n)).chain(unseen.map(|w| (w, 0))) {
                for seq in 0..=last + 2 {
                    let key = Key::new(seq, writer);
                    prop_assert_eq!(ov.get(&key), model.get(&key).copied());
                    prop_assert_eq!(ov.contains(&key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(ov.get(&Key::initial()), Some(model[&Key::initial()]));

            let mut copy = ov.clone();
            prop_assert!(copy == ov);
            let key = Key::new(next[&ids[0]] + 1, ids[0]);
            prop_assert!(copy.install(key, Value(7)));
            prop_assert!(copy != ov && !ov.contains(&key));
            model.insert(key, Value(7));
            agrees(&mut copy, &model, (key, Value(7)));
        }
    }

    /// A store sized for its writers never reallocates its marks table,
    /// and one built without a size grows it to the highest writer id.
    #[test]
    fn a_sized_marks_table_never_grows() {
        let mut sized = ObjectVersions::with_writers(64);
        let table = sized.marks.as_ptr();
        let mut grown = ObjectVersions::new();
        for seq in 1..=4 {
            for writer in [63, 0, 17] {
                let key = Key::new(seq, ClientId(writer));
                assert!(sized.install(key, Value(seq)) && grown.install(key, Value(seq)));
            }
        }
        assert_eq!((sized.marks.as_ptr(), sized.marks.len()), (table, 64));
        assert_eq!(grown.marks.len(), 64);
        assert_eq!(sized, grown);
        // `κ₀` is slot 0, and re-installing it takes no mark.
        assert!(!sized.install(Key::initial(), Value(9)));
        assert_eq!(sized.get(&Key::initial()), Some(Value(9)));
        assert_eq!(sized.marks.len(), 64);
    }

    /// The highest writer id the table indexes installs; one past it is
    /// refused with the limit named, not allocated.
    #[test]
    fn a_writer_at_the_limit_installs() {
        let mut ov = ObjectVersions::new();
        let key = Key::new(1, ClientId((MAX_WRITERS - 1) as u32));
        assert!(ov.install(key, Value(1)));
        assert_eq!((ov.get(&key), ov.marks.len()), (Some(Value(1)), MAX_WRITERS));
    }

    #[test]
    #[should_panic(expected = "writer id 1048576 reaches the marks table's 2²⁰ limit")]
    fn a_writer_past_the_limit_is_refused() {
        ObjectVersions::new().install(Key::new(1, ClientId(MAX_WRITERS as u32)), Value(1));
    }

    /// A mark carries its `seq`, its slot and its previous mark's slot in
    /// the 16 bytes the `(writer, seq)` pair it replaced took: the marks
    /// table is part of every object's footprint, one entry per client id.
    #[test]
    fn a_mark_cannot_silently_widen() {
        assert_eq!(std::mem::size_of::<Mark>(), 16);
    }

    #[test]
    fn shard_store_hosts_and_installs() {
        let mut s = ShardStore::new(vec![ObjectId(0), ObjectId(1)], 8);
        assert!(s.hosts(ObjectId(0)));
        assert!(!s.hosts(ObjectId(9)));

        let k = Key::new(1, ClientId(7));
        s.install(ObjectId(0), k, Value(99));
        assert_eq!(s.get(ObjectId(0), &k), Some(Value(99)));
        assert_eq!(s.get(ObjectId(1), &k), None);

        // Lazily created object.
        s.install(ObjectId(5), k, Value(5));
        assert!(s.hosts(ObjectId(5)));
        assert_eq!(s.object(ObjectId(5)).unwrap().version_count(), 2);
        assert!(s.object_mut(ObjectId(5)).is_some());
    }
}
