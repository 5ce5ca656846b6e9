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
//! A lookup goes through the writer's mark first: each writer's entry in
//! the marks table also holds the slot of its newest version here, so the
//! key a writer installed last is found by one binary search over the
//! writers, O(log writers), however many other writers installed after it.
//! That is the key a READ asks for whenever the writer has not moved on:
//! in one DC with 64 writers interleaving at each object, the newest-first
//! search from the log's end reached it only after 13.4 versions on
//! average, and 83 % of the lookups there are now answered by the mark.
//! Any other key falls back to that search.

use crate::ids::{ClientId, ObjectId};
use crate::key::Key;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The capacity of the log's first block; block `k` holds
/// `FIRST_BLOCK << k` versions.
const FIRST_BLOCK: usize = 4;

/// The block table's first capacity: 8 blocks hold 1 020 versions.
const TABLE: usize = 8;

/// One writer's high-water mark at an object: the highest `seq` it
/// installed there, and the slot (install index) of that version.  16
/// bytes, as the `(writer, seq)` pair it replaced was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    writer: ClientId,
    slot: u32,
    seq: u64,
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
    /// Per writer that installed a version here, the highest `seq` it
    /// installed and that version's slot, sorted by writer: no key of that
    /// writer above it is in the log, so installing one is an append with
    /// no search, and looking the marked key up is a binary search.  A
    /// writer with no entry has the mark 0, which no real WRITE's key
    /// reaches.
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
    /// Creates the initial state `{(κ₀, v⁰)}`.
    pub fn new() -> Self {
        let initial = (Key::initial(), Value::INITIAL);
        let mut first = Vec::with_capacity(FIRST_BLOCK);
        first.push(initial);
        let mut blocks = Vec::with_capacity(TABLE);
        blocks.push(first);
        ObjectVersions {
            blocks,
            marks: Vec::new(),
            latest: initial,
            snapshot: None,
        }
    }

    /// Installs a new version `(key, value)` — the server-side effect of a
    /// `write-val` message.  Returns `true` if the key was not present
    /// before; a key that was keeps its place in the log and takes the new
    /// value.
    #[inline]
    pub fn install(&mut self, key: Key, value: Value) -> bool {
        self.latest = (key, value);
        // Snapshots already handed out keep the `Vals` of their request.
        self.snapshot = None;
        let writer = self.marks.binary_search_by_key(&key.writer, |mark| mark.writer);
        let mark = writer.map_or(0, |i| self.marks[i].seq);
        if key.seq > mark {
            let slot = u32::try_from(self.version_count()).expect("under 2³² versions");
            let mark = Mark { writer: key.writer, slot, seq: key.seq };
            match writer {
                Ok(i) => self.marks[i] = mark,
                Err(i) => self.marks.insert(i, mark),
            }
        } else if let Some(i) = self.position(&key) {
            let (k, j) = locate(i);
            self.blocks[k][j].1 = value;
            return false;
        }
        self.append((key, value));
        true
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

    /// The slot of `key`'s version, if installed: through its writer's
    /// mark if `key` is the one marked, O(log writers), else by searching
    /// the log newest version first.
    #[inline]
    fn position(&self, key: &Key) -> Option<usize> {
        if let Ok(i) = self.marks.binary_search_by_key(&key.writer, |mark| mark.writer) {
            let mark = self.marks[i];
            if mark.seq == key.seq {
                debug_assert_eq!(self.at(mark.slot as usize).0, *key, "a mark names its version");
                return Some(mark.slot as usize);
            }
        }
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
    /// through its writer's mark, else newest version first.
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
    /// Creates a store hosting the given objects, each at its initial version.
    pub fn new(objects: impl IntoIterator<Item = ObjectId>) -> Self {
        ShardStore {
            objects: objects
                .into_iter()
                .map(|o| (o, ObjectVersions::new()))
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
    use crate::hash::splitmix64;
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

    /// The next draw of a splitmix64 stream.
    fn draw(state: &mut u64) -> u64 {
        *state = splitmix64(*state);
        *state
    }

    /// Checks `ov` against the ordered map it stands for, through every
    /// view; `latest` is the last install.  Each writer's mark names the
    /// version of that writer's highest `seq`, and a lookup of it through
    /// the mark finds what the newest-first search finds.
    fn agrees(ov: &mut ObjectVersions, model: &BTreeMap<Key, Value>, latest: (Key, Value)) {
        assert_eq!(ov.version_count(), model.len());
        let writers = model.keys().filter(|k| !k.is_initial()).map(|k| k.writer);
        let writers: std::collections::BTreeSet<ClientId> = writers.collect();
        assert!(ov.marks.iter().map(|m| m.writer).eq(writers));
        for mark in &ov.marks {
            let key = Key::new(mark.seq, mark.writer);
            let highest = model.keys().filter(|k| k.writer == mark.writer).max();
            assert_eq!(highest, Some(&key), "the mark is the writer's highest");
            assert_eq!(ov.at(mark.slot as usize), (key, model[&key]));
            let scanned = ov.newest_first().find(|&(_, (k, _))| *k == key).map(|(i, _)| i);
            assert_eq!(scanned, Some(mark.slot as usize));
            assert_eq!(ov.get(&key), Some(model[&key]));
        }
        assert_eq!((ov.latest_key(), ov.latest_value()), latest);
        let mut set: Vec<_> = ov.snapshot().to_vec();
        assert_eq!(set, ov.all_versions().collect::<Vec<_>>(), "install order");
        set.sort();
        assert_eq!(set, model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The log is the map it replaced: fresh installs from several
        /// writers, re-installs of present keys (in place, with a new
        /// value), keys installed below their writer's mark (a skipped
        /// `seq` filled in late), lookups of present and absent keys and of
        /// `κ₀`, past the third block.  A snapshot is the set as of its
        /// call and never shows a later install; a copy grows on its own.
        #[test]
        fn object_versions_agree_with_an_ordered_map(
            seed in 0u64..u64::MAX,
            versions in 1usize..200,
            writers in 1u32..6,
        ) {
            let mut state = seed;
            let mut ov = ObjectVersions::new();
            let mut model = BTreeMap::from([(Key::initial(), Value::INITIAL)]);
            let mut latest = (Key::initial(), Value::INITIAL);
            // Per writer, the last `seq` drawn, and the ones it skipped.
            let mut next = vec![0u64; writers as usize];
            let mut skipped: Vec<Key> = Vec::new();
            // Snapshots taken along the way, each with the map as of its call.
            let mut taken = Vec::new();
            while model.len() < versions {
                let writer = (draw(&mut state) % u64::from(writers)) as usize;
                let value = Value(draw(&mut state) % 1_000);
                let key = match draw(&mut state) % 8 {
                    // A present key again (`κ₀` included).
                    0 | 1 => *model.keys().nth(draw(&mut state) as usize % model.len()).unwrap(),
                    // A skipped `seq`, below its writer's mark.
                    2 if !skipped.is_empty() => {
                        skipped.swap_remove(draw(&mut state) as usize % skipped.len())
                    }
                    // The writer's next WRITE, now and then skipping a `seq`.
                    _ => {
                        let gap = draw(&mut state).is_multiple_of(3);
                        if gap {
                            next[writer] += 1;
                            skipped.push(Key::new(next[writer], ClientId(writer as u32 + 10)));
                        }
                        next[writer] += 1;
                        Key::new(next[writer], ClientId(writer as u32 + 10))
                    }
                };
                let fresh = model.insert(key, value).is_none();
                prop_assert_eq!(ov.install(key, value), fresh);
                latest = (key, value);
                prop_assert!(ov.contains(&key));
                prop_assert_eq!(ov.get(&key), Some(value));
                if draw(&mut state).is_multiple_of(4) {
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
            // mark, of a writer never seen, and `κ₀`.
            for w in 0..=writers {
                for seq in 0..=next.get(w as usize).map_or(2, |&n| n + 2) {
                    let key = Key::new(seq, ClientId(w + 10));
                    prop_assert_eq!(ov.get(&key), model.get(&key).copied());
                    prop_assert_eq!(ov.contains(&key), model.contains_key(&key));
                }
            }
            prop_assert_eq!(ov.get(&Key::initial()), model.get(&Key::initial()).copied());

            let mut copy = ov.clone();
            prop_assert!(copy == ov);
            let key = Key::new(next[0] + 1, ClientId(10));
            prop_assert!(copy.install(key, Value(7)));
            prop_assert!(copy != ov && !ov.contains(&key));
            model.insert(key, Value(7));
            agrees(&mut copy, &model, (key, Value(7)));
        }
    }

    /// A mark carries the slot beside the `(writer, seq)` it always held,
    /// in the same 16 bytes: the marks table is part of every object's
    /// peak.
    #[test]
    fn a_mark_cannot_silently_widen() {
        assert_eq!(std::mem::size_of::<Mark>(), 16);
    }

    #[test]
    fn shard_store_hosts_and_installs() {
        let mut s = ShardStore::new(vec![ObjectId(0), ObjectId(1)]);
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
