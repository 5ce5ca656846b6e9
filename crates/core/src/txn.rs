//! The transaction data type `OT` of §7.1: READ and WRITE transactions.
//!
//! A WRITE transaction `WRITE((o_{i1}, v_{i1}), …, (o_{ip}, v_{ip}))` updates
//! a set of distinct objects; a READ transaction `READ(o_{i1}, …, o_{iq})`
//! returns a consistent snapshot of a set of distinct objects.  No
//! transaction mixes reads and writes, and every object named in a
//! transaction lives on its own shard.  Under the paper's reliable-network
//! model no transaction aborts; the fault engine (`snow-sim`'s
//! `FaultSchedule`) relaxes that with [`TxOutcome::Aborted`] — the
//! retirement outcome of a transaction whose server crashed or whose
//! messages a partition swallowed, which the checkers treat as a
//! constraint-free (no read observations, no installed write) record.

use crate::ids::ObjectId;
use crate::inline_list::InlineList;
use crate::key::{Key, Tag};
use crate::value::Value;

/// The kind of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// A READ transaction (a group of single-object reads).
    Read,
    /// A WRITE transaction (a group of single-object writes).
    Write,
}

/// The longest list [`all_distinct`] scans pairwise.
const PAIRWISE: usize = 32;

/// True if no two of `items` name the same object.  The check runs once per
/// transaction built, and a transaction names a handful of objects: up to
/// [`PAIRWISE`] of them, a pairwise scan that allocates nothing.  A longer
/// list (a flood READ of 10⁵ objects, say) is checked as a sorted copy of
/// its objects, O(n log n) instead of O(n²).
fn all_distinct<T>(items: &[T], object: impl Fn(&T) -> ObjectId) -> bool {
    if items.len() <= PAIRWISE {
        return items
            .iter()
            .enumerate()
            .all(|(i, a)| items[..i].iter().all(|b| object(a) != object(b)));
    }
    let mut sorted: Vec<ObjectId> = items.iter().map(object).collect();
    sorted.sort_unstable();
    sorted.windows(2).all(|pair| pair[0] != pair[1])
}

/// A READ's object list: up to four objects in place.
pub type ReadObjects = InlineList<ObjectId, 4>;

/// A WRITE's `(object, value)` pairs: up to two in place.
pub type WritePairs = InlineList<(ObjectId, Value), 2>;

/// A WRITE's object list, as the writer tracks its acks and `update-coor` /
/// `info-reader` carry it: up to three objects in place, in 16 bytes.
pub type WriteObjects = InlineList<ObjectId, 3>;

/// Specification of a READ transaction: the distinct objects to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSpec {
    /// Objects to read, in the order the caller wants them reported.
    pub objects: ReadObjects,
}

impl ReadSpec {
    /// Creates a READ spec over the given objects (a `Vec`, a slice or a
    /// [`ReadObjects`]).
    ///
    /// # Panics
    /// Panics if `objects` is empty or contains duplicates — both are
    /// malformed under the `OT` data type.
    pub fn new(objects: impl Into<ReadObjects>) -> Self {
        let objects = objects.into();
        assert!(!objects.is_empty(), "READ transaction must name at least one object");
        assert!(all_distinct(&objects, |&o| o), "READ transaction must name distinct objects");
        ReadSpec { objects }
    }

    /// Number of objects read.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the spec has no objects (never constructible via [`ReadSpec::new`]).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// Specification of a WRITE transaction: distinct objects and the values to
/// write to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSpec {
    /// `(object, value)` pairs, one per distinct object.
    pub writes: WritePairs,
}

impl WriteSpec {
    /// Creates a WRITE spec (from a `Vec`, a slice or a [`WritePairs`]).
    ///
    /// # Panics
    /// Panics if `writes` is empty or targets the same object twice.
    pub fn new(writes: impl Into<WritePairs>) -> Self {
        let writes = writes.into();
        assert!(!writes.is_empty(), "WRITE transaction must name at least one object");
        assert!(
            all_distinct(&writes, |&(o, _)| o),
            "WRITE transaction must name distinct objects"
        );
        WriteSpec { writes }
    }

    /// The objects this WRITE updates.
    pub fn objects(&self) -> WriteObjects {
        self.writes.iter().map(|(o, _)| *o).collect()
    }

    /// The value this WRITE assigns to `object`, if any.
    pub fn value_for(&self, object: ObjectId) -> Option<Value> {
        self.writes.iter().find(|(o, _)| *o == object).map(|(_, v)| *v)
    }

    /// Number of objects written.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True if the spec has no writes (never constructible via [`WriteSpec::new`]).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// A transaction specification: what a client asks the system to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxSpec {
    /// A READ transaction.
    Read(ReadSpec),
    /// A WRITE transaction.
    Write(WriteSpec),
}

impl TxSpec {
    /// The kind of this transaction.
    pub fn kind(&self) -> TxKind {
        match self {
            TxSpec::Read(_) => TxKind::Read,
            TxSpec::Write(_) => TxKind::Write,
        }
    }

    /// The objects this transaction touches.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.objects_iter().collect()
    }

    /// The objects this transaction touches, without allocating — for
    /// hot paths that only scan.
    pub fn objects_iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let (read, write) = match self {
            TxSpec::Read(r) => (Some(r.objects.iter().copied()), None),
            TxSpec::Write(w) => (None, Some(w.writes.iter().map(|(o, _)| *o))),
        };
        read.into_iter().flatten().chain(write.into_iter().flatten())
    }

    /// Convenience constructor for a READ transaction.
    pub fn read(objects: Vec<ObjectId>) -> Self {
        TxSpec::Read(ReadSpec::new(objects))
    }

    /// Convenience constructor for a WRITE transaction.
    pub fn write(writes: Vec<(ObjectId, Value)>) -> Self {
        TxSpec::Write(WriteSpec::new(writes))
    }
}

/// The outcome of one single-object read inside a READ transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRead {
    /// The object that was read.
    pub object: ObjectId,
    /// The version key of the value that was returned.
    pub key: Key,
    /// The returned value.
    pub value: Value,
}

/// The outcome of a completed READ transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// One entry per object read, in the order of the [`ReadSpec`].
    pub reads: Vec<ObjectRead>,
    /// The tag this READ serializes at, when the protocol exposes one
    /// (Algorithms A, B and C do; baselines may not).
    pub tag: Option<Tag>,
}

impl ReadOutcome {
    /// The value returned for `object`, if the READ included it.
    pub fn value_for(&self, object: ObjectId) -> Option<Value> {
        self.reads.iter().find(|r| r.object == object).map(|r| r.value)
    }

    /// The version key returned for `object`, if the READ included it.
    pub fn key_for(&self, object: ObjectId) -> Option<Key> {
        self.reads.iter().find(|r| r.object == object).map(|r| r.key)
    }
}

/// The outcome of a completed WRITE transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The key the writer generated for this WRITE.
    pub key: Key,
    /// The tag the WRITE obtained (its position in `List`), when the
    /// protocol exposes one.
    pub tag: Option<Tag>,
}

/// The outcome of a completed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// A READ transaction's returned snapshot.
    Read(ReadOutcome),
    /// A WRITE transaction's acknowledgement.
    Write(WriteOutcome),
    /// The transaction was retired without a result: its server crashed, a
    /// partition swallowed its messages, or the run's fault schedule
    /// otherwise guaranteed it can never complete.  An aborted transaction
    /// observed nothing and installed nothing, so checkers treat it as a
    /// constraint-free node (only its real-time interval matters).
    Aborted,
}

impl TxOutcome {
    /// The READ outcome, if this is a READ.
    pub fn as_read(&self) -> Option<&ReadOutcome> {
        match self {
            TxOutcome::Read(r) => Some(r),
            TxOutcome::Write(_) | TxOutcome::Aborted => None,
        }
    }

    /// The WRITE outcome, if this is a WRITE.
    pub fn as_write(&self) -> Option<&WriteOutcome> {
        match self {
            TxOutcome::Write(w) => Some(w),
            TxOutcome::Read(_) | TxOutcome::Aborted => None,
        }
    }

    /// True if the transaction was retired without a result.
    pub fn is_aborted(&self) -> bool {
        matches!(self, TxOutcome::Aborted)
    }

    /// The tag carried by the outcome, if any.
    pub fn tag(&self) -> Option<Tag> {
        match self {
            TxOutcome::Read(r) => r.tag,
            TxOutcome::Write(w) => w.tag,
            TxOutcome::Aborted => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    #[test]
    fn read_spec_rejects_duplicates() {
        let ok = ReadSpec::new(vec![ObjectId(0), ObjectId(1)]);
        assert_eq!(ok.len(), 2);
        assert!(!ok.is_empty());
        let dup = std::panic::catch_unwind(|| ReadSpec::new(vec![ObjectId(0), ObjectId(0)]));
        assert!(dup.is_err());
        let empty = std::panic::catch_unwind(|| ReadSpec::new(vec![]));
        assert!(empty.is_err());
    }

    #[test]
    fn write_spec_rejects_duplicates_and_exposes_values() {
        let w = WriteSpec::new(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]);
        assert_eq!(w.objects()[..], [ObjectId(0), ObjectId(1)]);
        assert_eq!(w.value_for(ObjectId(1)), Some(Value(2)));
        assert_eq!(w.value_for(ObjectId(9)), None);
        assert_eq!(w.len(), 2);
        let dup = std::panic::catch_unwind(|| {
            WriteSpec::new(vec![(ObjectId(0), Value(1)), (ObjectId(0), Value(2))])
        });
        assert!(dup.is_err());
    }

    /// The panic message of `build`, which must panic.
    fn panic_message(build: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(build).expect_err("built a malformed spec");
        match payload.downcast::<&str>() {
            Ok(message) => message.to_string(),
            Err(payload) => *payload.downcast::<String>().expect("a string panic"),
        }
    }

    /// Specs far past the pairwise scan's length build (a quadratic check
    /// took seconds at 10⁵ objects), and a duplicate is still caught, with
    /// the same message, at the front, at the back, and across the ends.
    #[test]
    fn wide_specs_build_and_still_reject_a_duplicate_anywhere() {
        const N: u32 = 100_000;
        let objects: Vec<ObjectId> = (0..N).map(ObjectId).collect();
        assert_eq!(TxSpec::read(objects.clone()).objects().len(), N as usize);
        let pairs: Vec<(ObjectId, Value)> =
            objects.iter().map(|&o| (o, Value(u64::from(o.0)))).collect();
        assert_eq!(TxSpec::write(pairs.clone()).objects().len(), N as usize);
        let last = N as usize - 1;
        for (at, from) in [(1, 0), (last, last - 1), (last, 0)] {
            let mut objects = objects.clone();
            objects[at] = objects[from];
            assert_eq!(
                panic_message(move || drop(ReadSpec::new(objects))),
                "READ transaction must name distinct objects"
            );
            let mut pairs = pairs.clone();
            pairs[at].0 = pairs[from].0;
            assert_eq!(
                panic_message(move || drop(WriteSpec::new(pairs))),
                "WRITE transaction must name distinct objects"
            );
        }
        // Either side of the pairwise scan's length.
        for n in [PAIRWISE as u32, PAIRWISE as u32 + 1] {
            let mut objects: Vec<ObjectId> = (0..n).map(ObjectId).collect();
            assert_eq!(ReadSpec::new(objects.clone()).len(), n as usize);
            objects[n as usize - 1] = ObjectId(0);
            assert!(std::panic::catch_unwind(move || ReadSpec::new(objects)).is_err());
        }
    }

    #[test]
    fn tx_spec_kind_and_objects() {
        let r = TxSpec::read(vec![ObjectId(3), ObjectId(4)]);
        assert_eq!(r.kind(), TxKind::Read);
        assert_eq!(r.objects(), vec![ObjectId(3), ObjectId(4)]);
        let w = TxSpec::write(vec![(ObjectId(5), Value(9))]);
        assert_eq!(w.kind(), TxKind::Write);
        assert_eq!(w.objects(), vec![ObjectId(5)]);
    }

    #[test]
    fn outcomes_expose_lookups_and_tags() {
        let ro = ReadOutcome {
            reads: vec![
                ObjectRead {
                    object: ObjectId(0),
                    key: Key::new(1, ClientId(0)),
                    value: Value(10),
                },
                ObjectRead {
                    object: ObjectId(1),
                    key: Key::initial(),
                    value: Value::INITIAL,
                },
            ],
            tag: Some(Tag(2)),
        };
        assert_eq!(ro.value_for(ObjectId(0)), Some(Value(10)));
        assert_eq!(ro.key_for(ObjectId(1)), Some(Key::initial()));
        assert_eq!(ro.value_for(ObjectId(7)), None);

        let out = TxOutcome::Read(ro.clone());
        assert_eq!(out.tag(), Some(Tag(2)));
        assert!(out.as_read().is_some());
        assert!(out.as_write().is_none());

        let wo = TxOutcome::Write(WriteOutcome {
            key: Key::new(1, ClientId(0)),
            tag: Some(Tag(2)),
        });
        assert_eq!(wo.tag(), Some(Tag(2)));
        assert!(wo.as_write().is_some());
        assert!(wo.as_read().is_none());
    }

    #[test]
    fn aborted_outcome_is_constraint_free() {
        let a = TxOutcome::Aborted;
        assert!(a.is_aborted());
        assert!(a.as_read().is_none());
        assert!(a.as_write().is_none());
        assert_eq!(a.tag(), None);
        let ro = TxOutcome::Read(ReadOutcome { reads: vec![], tag: None });
        assert!(!ro.is_aborted());
    }
}
