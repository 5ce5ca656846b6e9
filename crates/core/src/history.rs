//! Execution histories: the observable behaviour of a transaction
//! processing system.
//!
//! A [`History`] is the list of transactions a run produced, each described
//! by a [`TxRecord`]: its invocation/response instants (the INV/RESP events
//! of §2), its outcome, and the per-read measurements — number of rounds,
//! number of versions returned per read, and whether any server had to block
//! — that the SNOW properties of §2.1 are stated in terms of.
//!
//! Histories are produced by the simulator of `snow-sim`, which hands over
//! the id table it looked records up by, and consumed by `snow-checker`.
//! A history's ids are unique and below [`History::ID_LIMIT`], and its id
//! table names every record's slot: nothing outside this module can edit
//! the records behind the table's back.

use crate::ids::{ClientId, ObjectId, ServerId, TxId};
use crate::txn::{TxKind, TxOutcome, TxSpec};

/// Instrumentation of one single-object read inside a READ transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// The object that was read.
    pub object: ObjectId,
    /// The server that answered.
    pub server: ServerId,
    /// How many versions of the object the server's response carried
    /// (1 for Algorithms A and B; for Algorithm C the paper's bound is
    /// |W|+1, but the implementation never collects versions, so it is
    /// every version ever written to the object).
    pub versions_in_response: usize,
    /// Whether the server answered without waiting for any other input
    /// action (the N property).  `false` means the server parked the request
    /// and replied only after some other message arrived.
    pub nonblocking: bool,
}

/// The record of one transaction in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Unique id of the transaction instance.
    pub tx_id: TxId,
    /// The client that issued it.
    pub client: ClientId,
    /// What was asked.
    pub spec: TxSpec,
    /// What came back (`None` while still in flight / if the run ended first).
    pub outcome: Option<TxOutcome>,
    /// Time of the INV event (simulator ticks).
    pub invoked_at: u64,
    /// Time of the RESP event, if the transaction completed.
    pub responded_at: Option<u64>,
    /// Number of client↔server round trips the transaction used.
    pub rounds: u32,
    /// Number of client↔client messages the transaction triggered
    /// (non-zero only for protocols that use C2C communication).
    pub c2c_messages: u32,
    /// Per-read instrumentation (empty for WRITE transactions).
    pub reads: Vec<ReadResult>,
}

impl TxRecord {
    /// Creates a new in-flight record at invocation time.
    pub fn invoked(tx_id: TxId, client: ClientId, spec: TxSpec, invoked_at: u64) -> Self {
        TxRecord {
            tx_id,
            client,
            spec,
            outcome: None,
            invoked_at,
            responded_at: None,
            rounds: 0,
            c2c_messages: 0,
            reads: Vec::new(),
        }
    }

    /// The kind of the transaction.
    #[inline]
    pub fn kind(&self) -> TxKind {
        self.spec.kind()
    }

    /// True if the transaction completed (has a RESP event).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.responded_at.is_some() && self.outcome.is_some()
    }

    /// Latency in time units, if complete.
    pub fn latency(&self) -> Option<u64> {
        self.responded_at.map(|r| r.saturating_sub(self.invoked_at))
    }

    /// True if every read in the transaction was answered without blocking.
    pub fn all_reads_nonblocking(&self) -> bool {
        self.reads.iter().all(|r| r.nonblocking)
    }

    /// The largest number of versions any single read response carried
    /// (0 for WRITE transactions).
    pub fn max_versions_per_read(&self) -> usize {
        self.reads.iter().map(|r| r.versions_in_response).max().unwrap_or(0)
    }

    /// True if this transaction's RESP precedes `other`'s INV in real time
    /// (the real-time order strict serializability must respect).
    pub fn precedes(&self, other: &TxRecord) -> bool {
        match self.responded_at {
            Some(resp) => resp < other.invoked_at,
            None => false,
        }
    }
}

/// A complete execution history.
///
/// One rule: every record sits at the slot a dense `TxId → slot` table names
/// for its id, so [`History::get`] is one table read, O(1), hit or miss.  The
/// rule holds by construction.  Records go in only through
/// [`History::push`] or `History::from(Vec<TxRecord>)`, which refuse an id
/// that already has a record or that reaches [`History::ID_LIMIT`];
/// `records` is a read-only view ([`Records`]), and they come back out, to be
/// edited, through `Vec::from(history)`.  `==` and `Debug` see the records
/// only.
///
/// The view cannot be grown, shrunk or reordered:
///
/// ```compile_fail
/// # use snow_core::{ClientId, History, ObjectId, TxId, TxRecord, TxSpec};
/// let rec = |id| TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), id);
/// let mut history = History::from(vec![rec(0), rec(1)]);
/// history.records.push(rec(2));
/// ```
///
/// ```compile_fail
/// # use snow_core::{ClientId, History, ObjectId, TxId, TxRecord, TxSpec};
/// let rec = |id| TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), id);
/// let mut history = History::from(vec![rec(0), rec(1)]);
/// history.records.reverse();
/// ```
///
/// An edit takes the records out and indexes the result anew:
///
/// ```
/// # use snow_core::{ClientId, History, ObjectId, TxId, TxRecord, TxSpec};
/// let rec = |id| TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), id);
/// let mut records = Vec::from(History::from(vec![rec(0), rec(1), rec(2)]));
/// records.truncate(1);
/// records.extend([rec(3), rec(4)]);
/// let history = History::from(records);
/// assert_eq!(history.get(TxId(4)).map(|r| r.invoked_at), Some(4));
/// assert!(history.get(TxId(2)).is_none());
/// ```
#[derive(Clone, Default)]
pub struct History {
    /// All transaction records, in invocation order.
    pub records: Records,
    /// `TxId → index into records`, or [`ABSENT`].
    slot_of: Vec<u32>,
}

/// A history's records, read-only: a slice to read, with no way to edit it
/// from outside this module.  Prints as the `Vec` it wraps.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Records(Vec<TxRecord>);

impl std::ops::Deref for Records {
    type Target = [TxRecord];

    #[inline]
    fn deref(&self) -> &[TxRecord] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = &'a TxRecord;
    type IntoIter = std::slice::Iter<'a, TxRecord>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl std::fmt::Debug for Records {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// `slot_of` entry of an id with no record.
const ABSENT: u32 = u32::MAX;

impl History {
    /// The ids a history can hold: `0 .. 2²⁴`.  The table takes 4 B per id
    /// up to the largest one held, so it is at most 64 MiB beside the
    /// records.  Every run issues ids densely from 0, and the longest one
    /// planned (10⁷ transactions, ROADMAP item 14) stays below the limit; a
    /// longer one raises it.  Slots fit the table's `u32` entries for the
    /// same reason.
    pub const ID_LIMIT: u64 = 1 << 24;

    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Makes room for `additional` more records; the id table grows as ids
    /// arrive.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.records.0.reserve(additional);
    }

    /// Reserves exactly `additional` more records and table room for ids
    /// below `id_end` (at most [`History::ID_LIMIT`]): a planned run's one
    /// allocation of each.
    pub fn reserve_exact(&mut self, additional: usize, id_end: usize) {
        self.records.0.reserve_exact(additional);
        let id_end = id_end.min(Self::ID_LIMIT as usize);
        self.slot_of.reserve_exact(id_end.saturating_sub(self.slot_of.len()));
    }

    /// Adds a record and enters its id in the table.
    ///
    /// Panics if the id already has a record or reaches
    /// [`History::ID_LIMIT`].
    #[inline]
    pub fn push(&mut self, record: TxRecord) {
        let tx = record.tx_id;
        assert!(tx.0 < Self::ID_LIMIT, "{tx} reaches the id table's 2²⁴ limit");
        let id = tx.0 as usize;
        if self.slot_of.len() <= id {
            self.slot_of.resize(id + 1, ABSENT);
        }
        assert!(self.slot_of[id] == ABSENT, "{tx} has a record already");
        self.slot_of[id] = self.records.0.len() as u32;
        self.records.0.push(record);
    }

    /// Number of transactions (complete or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the history has no transactions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterator over completed transactions.
    pub fn completed(&self) -> impl Iterator<Item = &TxRecord> {
        self.records.iter().filter(|r| r.is_complete())
    }

    /// Iterator over completed READ transactions.
    pub fn reads(&self) -> impl Iterator<Item = &TxRecord> {
        self.completed().filter(|r| r.kind() == TxKind::Read)
    }

    /// Iterator over completed WRITE transactions.
    pub fn writes(&self) -> impl Iterator<Item = &TxRecord> {
        self.completed().filter(|r| r.kind() == TxKind::Write)
    }

    /// Number of incomplete (never-responded) transactions.
    pub fn incomplete_count(&self) -> usize {
        self.records.iter().filter(|r| !r.is_complete()).count()
    }

    /// The slot of `tx`'s record: the table's entry, or `None`.
    #[inline]
    fn slot(&self, tx: TxId) -> Option<usize> {
        let slot = *self.slot_of.get(usize::try_from(tx.0).ok()?)?;
        if slot == ABSENT {
            return None;
        }
        debug_assert_eq!(self.records[slot as usize].tx_id, tx, "a record's id was rewritten");
        Some(slot as usize)
    }

    /// Looks up a record by id: O(1) through the id table.
    #[inline]
    pub fn get(&self, tx_id: TxId) -> Option<&TxRecord> {
        self.slot(tx_id).map(|slot| &self.records.0[slot])
    }

    /// Mutable lookup by id, O(1) like [`History::get`].  The record's
    /// `tx_id` is its key in the table: leave it as it is.
    #[inline]
    pub fn get_mut(&mut self, tx_id: TxId) -> Option<&mut TxRecord> {
        self.slot(tx_id).map(|slot| &mut self.records.0[slot])
    }
}

/// `records`, in the order given, pushed into a history sized for them.
///
/// Panics like [`History::push`] on a repeated id or one at the limit.
impl From<Vec<TxRecord>> for History {
    fn from(records: Vec<TxRecord>) -> Self {
        let id_end = records.iter().map(|r| r.tx_id.0.min(Self::ID_LIMIT) as usize + 1).max();
        let mut history = History::new();
        history.reserve_exact(records.len(), id_end.unwrap_or(0));
        records.into_iter().for_each(|rec| history.push(rec));
        history
    }
}

/// The records, in the history's order, to edit and index anew.
impl From<History> for Vec<TxRecord> {
    fn from(history: History) -> Self {
        history.records.0
    }
}

/// Prints the records only, as a derive over them would.
impl std::fmt::Debug for History {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("History").field("records", &self.records).finish()
    }
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl Eq for History {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, Tag};
    use crate::txn::{ObjectRead, ReadOutcome, TxOutcome, TxSpec, WriteOutcome};
    use crate::value::Value;

    /// A run keeps one record per transaction until it ends (ROADMAP item
    /// 14), and the record holds its spec's object list in place: 152 B,
    /// 8 more than with a `Vec` there, and no heap block beside it.  It
    /// must not silently widen.
    #[test]
    fn a_record_cannot_silently_widen() {
        assert!(std::mem::size_of::<TxRecord>() <= 152);
    }

    fn read_record(id: u64, inv: u64, resp: Option<u64>) -> TxRecord {
        let mut r = TxRecord::invoked(
            TxId(id),
            ClientId(0),
            TxSpec::read(vec![ObjectId(0), ObjectId(1)]),
            inv,
        );
        if let Some(t) = resp {
            r.responded_at = Some(t);
            r.outcome = Some(TxOutcome::Read(ReadOutcome {
                reads: vec![
                    ObjectRead {
                        object: ObjectId(0),
                        key: Key::initial(),
                        value: Value::INITIAL,
                    },
                    ObjectRead {
                        object: ObjectId(1),
                        key: Key::initial(),
                        value: Value::INITIAL,
                    },
                ],
                tag: Some(Tag::INITIAL),
            }));
            r.rounds = 1;
            r.reads = vec![
                ReadResult {
                    object: ObjectId(0),
                    server: ServerId(0),
                    versions_in_response: 1,
                    nonblocking: true,
                },
                ReadResult {
                    object: ObjectId(1),
                    server: ServerId(1),
                    versions_in_response: 1,
                    nonblocking: true,
                },
            ];
        }
        r
    }

    fn write_record(id: u64, inv: u64, resp: u64) -> TxRecord {
        let mut r = TxRecord::invoked(
            TxId(id),
            ClientId(1),
            TxSpec::write(vec![(ObjectId(0), Value(1))]),
            inv,
        );
        r.responded_at = Some(resp);
        r.outcome = Some(TxOutcome::Write(WriteOutcome {
            key: Key::new(1, ClientId(1)),
            tag: Some(Tag(2)),
        }));
        r.rounds = 2;
        r
    }

    #[test]
    fn record_lifecycle_and_metrics() {
        let inflight = read_record(1, 10, None);
        assert!(!inflight.is_complete());
        assert_eq!(inflight.latency(), None);
        assert_eq!(inflight.max_versions_per_read(), 0);

        let done = read_record(2, 10, Some(25));
        assert!(done.is_complete());
        assert_eq!(done.latency(), Some(15));
        assert!(done.all_reads_nonblocking());
        assert_eq!(done.max_versions_per_read(), 1);
        assert_eq!(done.kind(), TxKind::Read);
    }

    #[test]
    fn precedes_uses_real_time() {
        let a = read_record(1, 0, Some(10));
        let b = read_record(2, 20, Some(30));
        let c = read_record(3, 5, Some(30));
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.precedes(&c) || c.invoked_at > 10);
        let unfinished = read_record(4, 0, None);
        assert!(!unfinished.precedes(&b));
    }

    #[test]
    fn history_filters_and_lookup() {
        let mut h = History::new();
        assert!(h.is_empty());
        h.push(read_record(1, 0, Some(5)));
        h.push(write_record(2, 3, 9));
        h.push(read_record(3, 10, None));
        assert_eq!(h.len(), 3);
        assert_eq!(h.completed().count(), 2);
        assert_eq!(h.reads().count(), 1);
        assert_eq!(h.writes().count(), 1);
        assert_eq!(h.incomplete_count(), 1);
        assert!(h.get(TxId(2)).is_some());
        assert!(h.get(TxId(99)).is_none());
        h.get_mut(TxId(3)).unwrap().responded_at = Some(20);
        assert_eq!(h.get(TxId(3)).unwrap().responded_at, Some(20));
    }

    /// A planned history sizes its records and its id table once; pushes
    /// under the planned ids then move neither.
    #[test]
    fn a_reserved_history_is_allocated_once() {
        let mut h = History::new();
        h.push(read_record(1, 1, None));
        // Room for ids 2..=100 after the one pushed: exactly that.
        h.reserve_exact(99, 101);
        let buffers = |h: &History| (h.records.as_ptr(), h.slot_of.as_ptr());
        let capacities = |h: &History| (h.records.0.capacity(), h.slot_of.capacity());
        let (before, capacity) = (buffers(&h), capacities(&h));
        assert_eq!(capacity, (100, 101));
        for id in 2..=100 {
            h.push(read_record(id, id, None));
        }
        assert_eq!(buffers(&h), before, "neither table moved");
        assert_eq!(capacities(&h), capacity);
        // `History::from` sizes both the same way, whatever the id order.
        let mut records = Vec::from(h);
        records.reverse();
        let h = History::from(records);
        assert_eq!(capacities(&h), (100, 101));
        assert!((1..=100).all(|id| h.get(TxId(id)).is_some_and(|r| r.tx_id == TxId(id))));
        assert!(h.get(TxId(0)).is_none() && h.get(TxId(101)).is_none());
    }

    #[test]
    #[should_panic(expected = "tx2 has a record already")]
    fn a_repeated_id_is_refused() {
        let mut h = History::from(vec![read_record(1, 0, None), read_record(2, 1, None)]);
        h.push(read_record(2, 2, None));
    }

    #[test]
    #[should_panic(expected = "tx16777216 reaches the id table's 2²⁴ limit")]
    fn an_id_at_the_limit_is_refused() {
        History::new().push(read_record(History::ID_LIMIT, 0, None));
    }

    /// The largest id below the limit is held, with a table entry per id
    /// below it; the ids around it miss.
    #[test]
    fn the_largest_id_below_the_limit_is_held() {
        let last = History::ID_LIMIT - 1;
        let h = History::from(vec![read_record(last, 0, None)]);
        assert_eq!(h.slot_of.len(), History::ID_LIMIT as usize);
        assert_eq!(h.get(TxId(last)).map(|r| r.tx_id), Some(TxId(last)));
        for id in [0, last - 1, last + 1, u64::MAX] {
            assert!(h.get(TxId(id)).is_none(), "tx{id}");
        }
    }
}
