//! Execution histories: the observable behaviour of a transaction
//! processing system.
//!
//! A [`History`] is the list of transactions a run produced, each described
//! by a [`TxRecord`]: its invocation/response instants (the INV/RESP events
//! of §2), its outcome, and the per-read measurements — number of rounds,
//! number of versions returned per read, and whether any server had to block
//! — that the SNOW properties of §2.1 are stated in terms of.
//!
//! Histories are produced by the simulator of `snow-sim` and consumed by
//! `snow-checker`.

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// All transaction records, in invocation order.
    pub records: Vec<TxRecord>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Adds a record.
    pub fn push(&mut self, record: TxRecord) {
        self.records.push(record);
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

    /// Looks up a record by id — a linear scan; [`History::find`] is the
    /// O(log n) lookup for a caller that knows the invocation time.
    pub fn get(&self, tx_id: TxId) -> Option<&TxRecord> {
        self.records.iter().find(|r| r.tx_id == tx_id)
    }

    /// Looks up the record of `tx_id`, invoked at `invoked_at`: a binary
    /// search by `(invoked_at, tx_id)`, the order a simulator's history is
    /// in, so O(log n) there.  Records pushed out of that order are still
    /// found, by [`History::get`]'s scan.
    #[inline]
    pub fn find(&self, invoked_at: u64, tx_id: TxId) -> Option<&TxRecord> {
        let at = self.records.partition_point(|r| (r.invoked_at, r.tx_id) < (invoked_at, tx_id));
        match self.records.get(at) {
            Some(rec) if (rec.invoked_at, rec.tx_id) == (invoked_at, tx_id) => Some(rec),
            _ => self.get(tx_id).filter(|rec| rec.invoked_at == invoked_at),
        }
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, tx_id: TxId) -> Option<&mut TxRecord> {
        self.records.iter_mut().find(|r| r.tx_id == tx_id)
    }
}

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

    /// `find` binary-searches a history in invocation order, and still
    /// finds a record pushed out of it; a wrong invocation time misses.
    #[test]
    fn find_looks_records_up_by_invocation_time_and_id() {
        let mut h = History::new();
        for id in 0..50u64 {
            h.push(read_record(id, id / 2, Some(id + 100)));
        }
        for id in 0..50u64 {
            assert_eq!(h.find(id / 2, TxId(id)).map(|r| r.tx_id), Some(TxId(id)));
        }
        assert!(h.find(7, TxId(3)).is_none(), "TxId(3) was invoked at 1");
        assert!(h.find(0, TxId(99)).is_none());
        h.records.reverse();
        assert_eq!(h.find(10, TxId(21)).map(|r| r.tx_id), Some(TxId(21)));
    }
}
