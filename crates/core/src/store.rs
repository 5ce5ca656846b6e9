//! The versioned object store kept by a storage server (shard).
//!
//! In the paper each server `sᵢ` maintains a set variable
//! `Vals ⊆ K × Vᵢ` of `(key, value)` pairs, initially `{(κ₀, v⁰ᵢ)}`
//! (Algorithms A, B, C all share this layout).  [`ObjectVersions`] is exactly
//! that set for one object; [`ShardStore`] groups the objects hosted by one
//! server, which generalizes the paper's one-object-per-server presentation
//! to realistic multi-object shards without changing any protocol logic.

use crate::ids::ObjectId;
use crate::key::Key;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The multi-version state of a single object: the paper's `Vals` set.
#[derive(Debug, Clone)]
pub struct ObjectVersions {
    /// All versions ever written, keyed by the WRITE transaction's key.
    vals: BTreeMap<Key, Value>,
    /// The key of the most recently *installed* version, in arrival order at
    /// this server.  Only used by baselines (Eiger-style / simple reads);
    /// Algorithms A, B and C always read by explicit key.
    latest: Key,
    /// `vals` in key order as one shared slice — what Algorithm C's
    /// `read-vals` answers with.  Built by the first
    /// [`ObjectVersions::snapshot`] after an install and dropped by the
    /// next install, so a READ costs a reference count, not a copy of every
    /// version stored, and a store nobody snapshots (every other protocol)
    /// pays one `None` store per install.  A cache: never part of equality.
    snapshot: Option<Arc<[(Key, Value)]>>,
}

impl PartialEq for ObjectVersions {
    fn eq(&self, other: &Self) -> bool {
        (&self.vals, self.latest) == (&other.vals, other.latest)
    }
}
impl Eq for ObjectVersions {}

impl ObjectVersions {
    /// Creates the initial state `{(κ₀, v⁰)}`.
    pub fn new() -> Self {
        let mut vals = BTreeMap::new();
        vals.insert(Key::initial(), Value::INITIAL);
        ObjectVersions {
            vals,
            latest: Key::initial(),
            snapshot: None,
        }
    }

    /// Installs a new version `(key, value)` — the server-side effect of a
    /// `write-val` message.  Returns `true` if the key was not present before.
    pub fn install(&mut self, key: Key, value: Value) -> bool {
        let fresh = self.vals.insert(key, value).is_none();
        self.latest = key;
        // Snapshots already handed out keep the `Vals` of their request.
        self.snapshot = None;
        fresh
    }

    /// Looks up the value stored under `key` (the `read-val` handler).
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.vals.get(key).copied()
    }

    /// The key installed most recently at this server (arrival order).
    pub fn latest_key(&self) -> Key {
        self.latest
    }

    /// The value installed most recently at this server.
    pub fn latest_value(&self) -> Value {
        self.vals[&self.latest]
    }

    /// All `(key, value)` pairs — the full `Vals` set.  Borrowing iterator
    /// in key order, for callers that only inspect or count versions;
    /// Algorithm C's `read-vals` handler, which must hand the set to a
    /// message, takes [`ObjectVersions::snapshot`] instead.
    pub fn all_versions(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.vals.iter().map(|(k, v)| (*k, *v))
    }

    /// The full `Vals` set as of this call, in key order (so a reader can
    /// binary-search it), shared: every snapshot taken between two installs
    /// is the same allocation, and a later [`ObjectVersions::install`]
    /// never shows through one taken before it.
    pub fn snapshot(&mut self) -> Arc<[(Key, Value)]> {
        match &self.snapshot {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared: Arc<[(Key, Value)]> = self.all_versions().collect();
                self.snapshot = Some(Arc::clone(&shared));
                shared
            }
        }
    }

    /// Number of versions currently stored (≥ 1: the initial version never
    /// leaves the set).
    pub fn version_count(&self) -> usize {
        self.vals.len()
    }

    /// True if a version with `key` has been installed.
    pub fn contains(&self, key: &Key) -> bool {
        self.vals.contains_key(key)
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
    pub fn object(&self, object: ObjectId) -> Option<&ObjectVersions> {
        self.objects.get(&object)
    }

    /// Mutable access to the versioned state of `object`, if hosted here.
    pub fn object_mut(&mut self, object: ObjectId) -> Option<&mut ObjectVersions> {
        self.objects.get_mut(&object)
    }

    /// Installs `(key, value)` for `object`, creating the object lazily if it
    /// was not declared up front (useful for dynamically sized workloads).
    pub fn install(&mut self, object: ObjectId, key: Key, value: Value) {
        self.objects.entry(object).or_default().install(key, value);
    }

    /// Reads `object` at `key`.
    pub fn get(&self, object: ObjectId, key: &Key) -> Option<Value> {
        self.objects.get(&object).and_then(|o| o.get(key))
    }

    /// True if `object` is hosted by this shard.
    pub fn hosts(&self, object: ObjectId) -> bool {
        self.objects.contains_key(&object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

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
    fn snapshot_is_the_vals_set_in_key_order() {
        let mut ov = ObjectVersions::new();
        // Installed out of key order, by two writers whose sequence numbers
        // interleave: the snapshot sorts by `(seq, writer)` like the map.
        for (seq, writer) in [(3, 0), (1, 1), (2, 0), (1, 0)] {
            ov.install(Key::new(seq, ClientId(writer)), Value(seq * 10 + writer as u64));
        }
        let snapshot = ov.snapshot();
        assert_eq!(snapshot.to_vec(), ov.all_versions().collect::<Vec<_>>());
        assert_eq!(snapshot.len(), ov.version_count());
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
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
