//! Lemma 20 over a commit stream: [`TagOrderStream`] certifies a tagged
//! history while it commits, and hands over to the semantic
//! [`StreamChecker`] when tags cannot decide.  It is the crate's one
//! implementation of Lemma 20: the drivers feed it live, and
//! [`crate::check_auto`] feeds it a finished history
//! ([`TagOrderStream::feed_history`]).
//!
//! **Lemma 20.**  If every transaction carries a tag (P1), the tag order is
//! consistent with real time (P2), distinct writes carry distinct tags (P3)
//! and every READ returns, per object, the version of the latest WRITE
//! that precedes it in the tag order, or κ₀ (P4), then the history is
//! strictly serializable.  The tag order `≺` puts a smaller tag first and,
//! at one tag, WRITEs before READs; ranking each commit by `(tag, WRITE
//! before READ, invocation, id)` makes it total, and the rank order is the
//! witness.  The stream checks the conditions on that order, incrementally:
//!
//! * **On arrival** (commits come in RESP order), P2: the highest `(tag,
//!   kind)` group among the commits that responded before the newcomer's
//!   INV must not exceed the newcomer's.  Every commit that could precede
//!   the newcomer in real time has already arrived, so checking each
//!   commit against its predecessors covers every pair.  The groups are
//!   kept as a running maximum over the commit stream, binary-searched by
//!   RESP.  The commit is then held, keyed by its rank.
//! * **At a watermark** `w` (no commit ingested later was invoked before
//!   `w`), the rank-prefix of held commits that responded before `w` is
//!   certified: P3 (consecutive certified writes carry distinct tags) and
//!   P4 (each certified commit replays through [`SequentialOt`]), then the
//!   commit joins the witness and is dropped.  The prefix is final: a
//!   later commit was invoked after every certified one responded, so it
//!   follows each of them in real time, and P2 on its arrival puts it in
//!   a group no lower than theirs — at a later invocation, so at a higher
//!   rank.
//!
//! Per commit that is O(log held), with no precedence graph.  When the
//! whole stream passes, [`TagOrderStream::finish`] returns the rank order
//! of every commit as the witness.
//!
//! **Records are read in place.**  A record is final at its RESP, so the
//! stream never copies one on the tag-order lane: [`TagOrderStream::ingest`]
//! borrows the record and keeps only its rank and RESP, and certification
//! reads the record back from a **record source** — a lookup by
//! `(invoked_at, tx_id)`, which the rank carries.  Mid-run the source is
//! the cluster that still holds the records ([`TagOrderStream::advance_watermark`]
//! takes it); for a finished [`History`] it is the history, searched in
//! O(log n) whatever order its records are in
//! ([`TagOrderStream::feed_history`], [`TagOrderStream::finish`]).
//!
//! **Giving up.**  An untagged commit, or a P2, P3 or P4 failure, means
//! the tags cannot decide; the verdict then comes from [`StreamChecker`],
//! so no category changes:
//!
//! * before any commit is certified, the checker is replayed exactly the
//!   calls received so far and takes every later one
//!   ([`StreamLane::Semantic`]) — an untagged protocol gives up at its
//!   first commit and is checked exactly as by a [`StreamChecker`] alone.
//!   The replay clones each record from the next record source the stream
//!   is handed (the watermark's, or `finish`'s); this is the one place
//!   the stream copies records, and the semantic engine owns its copies;
//! * after a certification the stream stops working, and `finish` checks
//!   the whole history with [`StreamChecker::check`]
//!   ([`StreamLane::Deferred`]): the certified prefix is a prefix of the
//!   tag order, not necessarily of every valid order, so the semantic
//!   engine must see all of it.
//!
//! ```
//! use snow_checker::{TagOrderStream, Verdict};
//! use snow_core::{
//!     ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, Tag, TxId, TxOutcome,
//!     TxRecord, TxSpec, Value, WriteOutcome,
//! };
//!
//! let mut history = History::new();
//! let spec = TxSpec::write(vec![(ObjectId(0), Value(1))]);
//! let mut w = TxRecord::invoked(TxId(0), ClientId(0), spec, 0);
//! w.responded_at = Some(10);
//! let key = Key::new(1, ClientId(0));
//! w.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: Some(Tag(2)) }));
//! let mut r = TxRecord::invoked(TxId(1), ClientId(1), TxSpec::read(vec![ObjectId(0)]), 20);
//! r.responded_at = Some(30);
//! r.outcome = Some(TxOutcome::Read(ReadOutcome {
//!     reads: vec![ObjectRead { object: ObjectId(0), key, value: Value(1) }],
//!     tag: Some(Tag(2)),
//! }));
//! history.push(w);
//! history.push(r);
//!
//! let mut stream = TagOrderStream::new();
//! stream.ingest(&history.records[0]);
//! // The READ was invoked at 20; certification reads the WRITE back.
//! stream.advance_watermark(20, |invoked_at, tx| history.find(invoked_at, tx));
//! assert_eq!(stream.certified(), 1);
//! stream.ingest(&history.records[1]);
//! assert_eq!(stream.finish(&history), Verdict::Serializable(vec![TxId(0), TxId(1)]));
//! ```

use crate::ot::SequentialOt;
use crate::stream::{hindsight_commits, StreamChecker};
use crate::strict::Verdict;
use snow_core::{History, Tag, TxId, TxKind, TxRecord};
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A transaction's group in the tag order `≺`: its tag, WRITEs (0) before
/// READs (1).
type Group = (Tag, u8);

/// A commit's place in the witness: group, then invocation time, then id.
type Rank = (Group, u64, TxId);

/// A commit waiting for the watermark to pass its response.  Its rank
/// names its record in the record source, by `(invoked_at, tx_id)`.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Held {
    rank: Rank,
    resp: u64,
}

/// A call received before the first certification, kept so a hand-over can
/// replay it to a [`StreamChecker`].
#[derive(Debug, Clone, Copy)]
enum Call {
    /// A commit, named by `(invoked_at, tx_id)`.
    Ingest(u64, TxId),
    Advance(u64),
}

/// Which engine a [`TagOrderStream`] is running on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLane {
    /// Certifying by tag order (Lemma 20).
    TagOrder,
    /// Tags could not decide before anything was certified: a
    /// [`StreamChecker`] takes every call, past and future.
    Semantic,
    /// Tags broke after a certification: [`TagOrderStream::finish`] checks
    /// the whole history with [`StreamChecker::check`].
    Deferred,
}

/// Lemma 20 checked incrementally over a commit stream, with the semantic
/// stream engine behind it.  See the [module docs](self).
#[derive(Debug)]
pub struct TagOrderStream {
    engine: Engine,
}

#[derive(Debug)]
enum Engine {
    Tags(Tags),
    /// Tags gave up before a certification; the calls so far wait for a
    /// record source to replay them from.
    Refused(Vec<Call>),
    Semantic(Box<StreamChecker>),
    Deferred,
}

/// The tag-order lane's state.
#[derive(Debug, Default)]
struct Tags {
    /// Commits not yet certified, smallest rank on top.
    held: BinaryHeap<Reverse<Held>>,
    /// `(RESP, highest group so far)` per commit, in commit order, for the
    /// commits that responded at or after the watermark.
    maxima: VecDeque<(u64, Group)>,
    /// The highest group among the commits dropped from `maxima`.
    floor: Option<Group>,
    watermark: u64,
    replay: SequentialOt,
    /// The tag of the last certified WRITE (P3).
    last_write: Option<Tag>,
    witness: Vec<TxId>,
    /// The calls received so far, until the first certification.
    calls: Option<Vec<Call>>,
}

impl Default for TagOrderStream {
    fn default() -> Self {
        TagOrderStream {
            engine: Engine::Tags(Tags { calls: Some(Vec::new()), ..Tags::default() }),
        }
    }
}

impl TagOrderStream {
    /// Creates a stream on the tag-order lane.
    pub fn new() -> Self {
        TagOrderStream::default()
    }

    /// The engine the stream is running on.
    pub fn lane(&self) -> StreamLane {
        match self.engine {
            Engine::Tags(_) => StreamLane::TagOrder,
            Engine::Refused(_) | Engine::Semantic(_) => StreamLane::Semantic,
            Engine::Deferred => StreamLane::Deferred,
        }
    }

    /// Commits certified by tag order so far (0 off the tag-order lane).
    pub fn certified(&self) -> usize {
        match &self.engine {
            Engine::Tags(tags) => tags.witness.len(),
            _ => 0,
        }
    }

    /// Ingests the next committed transaction.  Transactions must arrive in
    /// commit (RESP) order, as for [`StreamChecker::ingest`], and each must
    /// stay readable, unchanged, through the record sources the stream is
    /// handed later.  The tag-order lane keeps no copy of `rec`; the
    /// semantic lane clones it.
    #[inline]
    pub fn ingest(&mut self, rec: &TxRecord) {
        match &mut self.engine {
            Engine::Tags(tags) => {
                if tags.ingest(rec).is_err() {
                    self.give_up();
                }
            }
            Engine::Refused(calls) => calls.push(Call::Ingest(rec.invoked_at, rec.tx_id)),
            Engine::Semantic(checker) => checker.ingest(rec.clone()),
            Engine::Deferred => {}
        }
    }

    /// Advances the certification frontier: the caller promises that every
    /// transaction ingested from now on was invoked at or after
    /// `watermark`, as for [`StreamChecker::advance_watermark`].  `records`
    /// is the record source: it returns the record of the transaction
    /// invoked at the given time under the given id — every commit
    /// ingested so far must be found.
    pub fn advance_watermark<'s>(
        &mut self,
        watermark: u64,
        records: impl Fn(u64, TxId) -> Option<&'s TxRecord>,
    ) {
        match &mut self.engine {
            Engine::Tags(tags) => {
                if tags.advance(watermark, &records).is_err() {
                    self.give_up();
                }
            }
            Engine::Refused(calls) => calls.push(Call::Advance(watermark)),
            Engine::Semantic(checker) => checker.advance_watermark(watermark),
            Engine::Deferred => {}
        }
        self.hand_over(&records);
    }

    /// Feeds a finished history: its completed records in commit (RESP)
    /// order, the watermark advanced after each as tightly as hindsight
    /// allows — by the rule [`StreamChecker::feed_history`] feeds a
    /// [`StreamChecker`] by, so a hand-over replays exactly what that
    /// would have fed.  [`TagOrderStream::finish`] on the same history
    /// then gives the verdict; [`crate::check_auto`] is the two calls.
    pub fn feed_history(&mut self, history: &History) {
        let records = record_source(history);
        for (rec, watermark) in hindsight_commits(history) {
            self.ingest(rec);
            self.advance_watermark(watermark, &records);
        }
    }

    /// Certifies the rest and returns the verdict.  `history` is the run's
    /// whole history, and the record source from here on: held commits are
    /// read back from it, the semantic engine reads its incomplete
    /// transactions, and the deferred lane all of it.
    pub fn finish(mut self, history: &History) -> Verdict {
        let records = record_source(history);
        if let Engine::Tags(tags) = &mut self.engine {
            if tags.certify(None, &records).is_ok() {
                return Verdict::Serializable(std::mem::take(&mut tags.witness));
            }
            self.give_up();
        }
        self.hand_over(&records);
        match self.engine {
            Engine::Tags(_) | Engine::Refused(_) => unreachable!("left above"),
            Engine::Semantic(mut checker) => {
                for rec in history.records.iter().filter(|r| !r.is_complete()) {
                    checker.ingest_incomplete(rec.clone());
                }
                checker.finish()
            }
            Engine::Deferred => StreamChecker::check(history),
        }
    }

    /// Leaves the tag-order lane: to [`Engine::Refused`] while nothing is
    /// certified, to [`Engine::Deferred`] after.
    fn give_up(&mut self) {
        if let Engine::Tags(tags) = std::mem::replace(&mut self.engine, Engine::Deferred) {
            if let Some(calls) = tags.calls {
                self.engine = Engine::Refused(calls);
            }
        }
    }

    /// Replays refused calls to a [`StreamChecker`], cloning each record
    /// from `records`; any other engine is left as it is.
    fn hand_over<'s>(&mut self, records: &impl Fn(u64, TxId) -> Option<&'s TxRecord>) {
        let Engine::Refused(calls) = &self.engine else {
            return;
        };
        let mut checker = StreamChecker::new();
        for &call in calls {
            match call {
                Call::Ingest(invoked_at, tx) => {
                    checker.ingest(read_back(records, invoked_at, tx).clone())
                }
                Call::Advance(watermark) => checker.advance_watermark(watermark),
            }
        }
        self.engine = Engine::Semantic(Box::new(checker));
    }
}

/// `history` as a record source, O(log n) per lookup whatever order its
/// records are in: [`History::find`] when they are in `(invoked_at, tx_id)`
/// order, as a simulator's history is, else a search of an index sorted
/// into that order (`find` alone would scan the history per lookup).  The
/// order is checked, and the index built, at the first lookup.
fn record_source<'h>(history: &'h History) -> impl Fn(u64, TxId) -> Option<&'h TxRecord> {
    let at = |r: &TxRecord| (r.invoked_at, r.tx_id);
    let index = OnceCell::new();
    move |invoked_at, tx| {
        let index = index.get_or_init(|| {
            (!history.records.is_sorted_by_key(at)).then(|| {
                let mut index: Vec<&TxRecord> = history.records.iter().collect();
                index.sort_by_key(|r| at(r));
                index
            })
        });
        match index {
            None => history.find(invoked_at, tx),
            Some(index) => index
                .binary_search_by_key(&(invoked_at, tx), |r| at(r))
                .ok()
                .map(|i| index[i]),
        }
    }
}

/// The ingested commit `(invoked_at, tx)`, read back from a record source.
fn read_back<'s>(
    records: &impl Fn(u64, TxId) -> Option<&'s TxRecord>,
    invoked_at: u64,
    tx: TxId,
) -> &'s TxRecord {
    records(invoked_at, tx)
        .unwrap_or_else(|| panic!("the record source lost ingested commit {tx}"))
}

impl Tags {
    /// P2 on arrival, then hold.  `Err` is a commit the tags cannot place:
    /// untagged, or ranked below a commit that precedes it.
    fn ingest(&mut self, rec: &TxRecord) -> Result<(), ()> {
        if let Some(calls) = &mut self.calls {
            calls.push(Call::Ingest(rec.invoked_at, rec.tx_id));
        }
        let tag = match &rec.outcome {
            // Constraint-free and untagged: it takes no place in the order.
            Some(outcome) if outcome.is_aborted() => return Ok(()),
            outcome => outcome.as_ref().and_then(|o| o.tag()),
        };
        let (Some(tag), Some(resp)) = (tag, rec.responded_at) else {
            return Err(());
        };
        debug_assert!(
            self.maxima.back().is_none_or(|&(last, _)| last <= resp),
            "commits must be fed in RESP order"
        );
        let group = (tag, match rec.kind() {
            TxKind::Write => 0,
            TxKind::Read => 1,
        });
        let before = self.maxima.partition_point(|&(r, _)| r < rec.invoked_at);
        let highest = before.checked_sub(1).map(|i| self.maxima[i].1).or(self.floor);
        if highest.is_some_and(|h| h > group) {
            return Err(());
        }
        let top = self.maxima.back().map(|m| m.1).or(self.floor);
        self.maxima.push_back((resp, top.map_or(group, |t| t.max(group))));
        self.held.push(Reverse(Held { rank: (group, rec.invoked_at, rec.tx_id), resp }));
        Ok(())
    }

    /// Moves the watermark and certifies what it closes.
    fn advance<'s>(
        &mut self,
        watermark: u64,
        records: &impl Fn(u64, TxId) -> Option<&'s TxRecord>,
    ) -> Result<(), ()> {
        if watermark <= self.watermark {
            return Ok(());
        }
        self.watermark = watermark;
        if let Some(calls) = &mut self.calls {
            calls.push(Call::Advance(watermark));
        }
        // Every later commit was invoked after these responded: they are
        // below every later INV, so only their maximum is still needed.
        while self.maxima.front().is_some_and(|&(resp, _)| resp < watermark) {
            self.floor = self.maxima.pop_front().map(|m| m.1);
        }
        self.certify(Some(watermark), records)
    }

    /// Certifies the rank-prefix of held commits that responded before
    /// `until` (all of them for `None`), reading each from `records`: P3,
    /// P4, then the witness.
    fn certify<'s>(
        &mut self,
        until: Option<u64>,
        records: &impl Fn(u64, TxId) -> Option<&'s TxRecord>,
    ) -> Result<(), ()> {
        loop {
            let Held { rank: ((tag, kind), invoked_at, tx), .. } = match self.held.peek_mut() {
                Some(top) if until.is_none_or(|w| top.0.resp < w) => PeekMut::pop(top).0,
                _ => break,
            };
            let is_write = kind == 0;
            if (is_write && self.last_write == Some(tag))
                || self.replay.apply(read_back(records, invoked_at, tx)).is_err()
            {
                return Err(());
            }
            if is_write {
                self.last_write = Some(tag);
            }
            self.witness.push(tx);
            self.calls = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, TxOutcome, TxSpec, Value, WriteOutcome,
    };
    use std::cell::Cell;
    use std::collections::BTreeMap;

    /// A WRITE of object 0 installing `Key::new(id, 0)`.
    fn write(id: u64, inv: u64, resp: u64, tag: Option<u64>) -> TxRecord {
        let spec = TxSpec::write(vec![(ObjectId(0), Value(id))]);
        let mut rec = TxRecord::invoked(TxId(id), ClientId(0), spec, inv);
        rec.responded_at = Some(resp);
        let key = Key::new(id, ClientId(0));
        rec.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: tag.map(Tag) }));
        rec
    }

    /// A READ of object 0 returning the version of WRITE `of` (κ₀ for 0).
    fn read(id: u64, inv: u64, resp: u64, tag: u64, of: u64) -> TxRecord {
        let mut rec = TxRecord::invoked(TxId(id), ClientId(1), TxSpec::read(vec![ObjectId(0)]), inv);
        rec.responded_at = Some(resp);
        let key = if of == 0 { Key::initial() } else { Key::new(of, ClientId(0)) };
        rec.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: vec![ObjectRead { object: ObjectId(0), key, value: Value(of) }],
            tag: Some(Tag(tag)),
        }));
        rec
    }

    fn aborted(id: u64, inv: u64, resp: u64) -> TxRecord {
        let mut rec = write(id, inv, resp, None);
        rec.outcome = Some(TxOutcome::Aborted);
        rec
    }

    enum Step {
        Ingest(TxRecord),
        Advance(u64),
    }

    /// A run's records as a cluster keeps them: by id, read in place.
    struct Cluster {
        records: BTreeMap<TxId, TxRecord>,
        /// Lookups served, to show what the stream reads back.
        reads: Cell<usize>,
    }

    impl Cluster {
        fn of(steps: &[Step]) -> Self {
            let records = steps
                .iter()
                .filter_map(|step| match step {
                    Step::Ingest(rec) => Some((rec.tx_id, rec.clone())),
                    Step::Advance(_) => None,
                })
                .collect();
            Cluster { records, reads: Cell::new(0) }
        }

        /// The record source the watermark takes mid-run.
        fn source<'a>(&'a self) -> impl Fn(u64, TxId) -> Option<&'a TxRecord> + 'a {
            |_, tx| {
                self.reads.set(self.reads.get() + 1);
                self.records.get(&tx)
            }
        }

        /// The history a driver takes at the end: every record, in
        /// invocation order.
        fn take_history(&self) -> History {
            let mut records: Vec<TxRecord> = self.records.values().cloned().collect();
            records.sort_by_key(|r| (r.invoked_at, r.tx_id));
            History { records }
        }
    }

    /// Feeds `steps` to `stream` by reference, the watermark reading back
    /// from `cluster`.
    fn feed(stream: &mut TagOrderStream, cluster: &Cluster, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Ingest(rec) => stream.ingest(&cluster.records[&rec.tx_id]),
                Step::Advance(w) => stream.advance_watermark(*w, cluster.source()),
            }
        }
    }

    /// `steps` through a fresh stream; returns it with the taken history.
    fn run(steps: &[Step]) -> (TagOrderStream, History) {
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(steps));
        feed(&mut stream, &cluster, steps);
        (stream, cluster.take_history())
    }

    /// What a `StreamChecker` fed the same steps says.
    fn semantic(steps: &[Step]) -> Verdict {
        let mut checker = StreamChecker::new();
        for step in steps {
            match step {
                Step::Ingest(rec) => checker.ingest(rec.clone()),
                Step::Advance(w) => checker.advance_watermark(*w),
            }
        }
        checker.finish()
    }

    fn ids(ids: &[u64]) -> Verdict {
        Verdict::Serializable(ids.iter().map(|&i| TxId(i)).collect())
    }

    #[test]
    fn a_tagged_stream_is_certified_as_it_commits_with_the_tag_order_witness() {
        let steps = [
            Step::Ingest(write(1, 0, 10, Some(2))),
            Step::Ingest(read(2, 5, 11, 1, 0)),
            Step::Ingest(aborted(3, 12, 14)),
            Step::Advance(15),
            Step::Ingest(write(4, 15, 20, Some(3))),
            Step::Ingest(read(5, 16, 22, 3, 4)),
            Step::Ingest(read(6, 15, 23, 2, 1)),
        ];
        let (stream, history) = run(&steps);
        // The READ at tag 1 precedes the WRITE at tag 2; the aborted
        // commit takes no place.
        assert_eq!((stream.lane(), stream.certified()), (StreamLane::TagOrder, 2));
        assert_eq!(stream.finish(&history), ids(&[2, 1, 6, 4, 5]));
    }

    /// Ingest borrows: the tag-order lane reads nothing back until the
    /// watermark certifies, then reads each certified commit once.
    #[test]
    fn the_tag_lane_reads_each_commit_back_once_at_its_certification() {
        let steps = [
            Step::Ingest(write(1, 0, 10, Some(2))),
            Step::Ingest(read(2, 5, 11, 1, 0)),
            Step::Ingest(write(3, 8, 12, Some(3))),
        ];
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
        feed(&mut stream, &cluster, &steps);
        assert_eq!(cluster.reads.get(), 0, "ingest copies and reads nothing");
        stream.advance_watermark(12, cluster.source());
        assert_eq!((stream.certified(), cluster.reads.get()), (2, 2));
        stream.advance_watermark(13, cluster.source());
        assert_eq!((stream.certified(), cluster.reads.get()), (3, 3));
        assert_eq!(stream.finish(&cluster.take_history()), ids(&[2, 1, 3]));
    }

    /// Nothing certified before `finish`: every held commit is read back
    /// from the taken history — in invocation order, or pushed out of it.
    #[test]
    fn finish_reads_held_commits_back_from_the_taken_history() {
        let steps = [
            Step::Ingest(write(1, 0, 10, Some(2))),
            Step::Ingest(read(2, 5, 11, 1, 0)),
            Step::Ingest(aborted(3, 12, 14)),
            Step::Ingest(write(4, 15, 20, Some(3))),
            Step::Ingest(read(5, 16, 22, 3, 4)),
        ];
        for in_order in [true, false] {
            let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
            feed(&mut stream, &cluster, &steps);
            let mut history = cluster.take_history();
            if !in_order {
                history.records.reverse();
            }
            drop(cluster);
            assert_eq!(stream.certified(), 0);
            assert_eq!(stream.finish(&history), ids(&[2, 1, 4, 5]), "in order: {in_order}");
        }
    }

    /// An untagged commit before any certification: the stream is on the
    /// semantic lane at once, and the next watermark replays every call so
    /// far to a `StreamChecker`, cloning each record from its source.
    #[test]
    fn an_untagged_commit_hands_every_call_so_far_to_the_semantic_engine() {
        let steps = [
            Step::Ingest(write(1, 0, 2, Some(2))),
            Step::Ingest(aborted(2, 1, 3)),
            Step::Advance(1),
            Step::Ingest(write(3, 1, 4, None)),
            Step::Advance(5),
            Step::Ingest(read(4, 5, 6, 9, 3)),
        ];
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
        feed(&mut stream, &cluster, &steps[..4]);
        assert_eq!((stream.lane(), cluster.reads.get()), (StreamLane::Semantic, 0));
        feed(&mut stream, &cluster, &steps[4..]);
        assert_eq!(cluster.reads.get(), 3, "the three commits before the watermark");
        let verdict = stream.finish(&cluster.take_history());
        assert!(verdict.is_serializable(), "{verdict:?}");
        assert_eq!(verdict, semantic(&steps));
    }

    /// Refused with no watermark after it: `finish` replays the calls,
    /// cloning from the taken history.
    #[test]
    fn a_hand_over_at_finish_reads_the_taken_history() {
        let steps = [
            Step::Ingest(write(1, 0, 2, Some(2))),
            Step::Advance(1),
            Step::Ingest(write(3, 1, 4, None)),
            Step::Ingest(read(4, 3, 6, 9, 3)),
        ];
        let (stream, history) = run(&steps);
        assert_eq!(stream.lane(), StreamLane::Semantic);
        assert_eq!(stream.finish(&history), semantic(&steps));
    }

    /// The READ (tag 1) ranks before the WRITE it observed (tag 2): P4
    /// fails on the very first certification, so the semantic engine is
    /// replayed both commits, read back from the cluster.
    #[test]
    fn a_failure_at_the_first_certification_hands_over_before_it() {
        let steps = [
            Step::Ingest(read(1, 0, 5, 1, 2)),
            Step::Ingest(write(2, 0, 10, Some(2))),
            Step::Advance(11),
        ];
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
        feed(&mut stream, &cluster, &steps);
        assert_eq!(stream.lane(), StreamLane::Semantic);
        // The failed certification read the READ once; the hand-over both.
        assert_eq!(cluster.reads.get(), 1 + 2);
        let verdict = stream.finish(&cluster.take_history());
        assert_eq!(verdict, semantic(&steps));
        assert_eq!(verdict, ids(&[2, 1]));
    }

    /// Tags that break after a certified prefix (P2: the READ at tag 3
    /// starts after the tag-5 WRITE it observed completed; P4: a READ
    /// ranked before the WRITE it observed; P3: two writes at one tag) —
    /// the stream defers, reads nothing more from the cluster, and the
    /// whole taken history, serializable each time, goes to the semantic
    /// engine.
    #[test]
    fn a_failure_after_a_certification_defers_to_the_whole_history() {
        let broken = [
            [write(2, 20, 30, Some(5)), read(3, 35, 40, 3, 2)],
            [write(2, 20, 30, Some(3)), read(3, 25, 40, 2, 2)],
            [write(2, 20, 30, Some(2)), read(3, 35, 40, 2, 2)],
        ];
        for (case, [w, r]) in broken.into_iter().enumerate() {
            let steps = [
                Step::Ingest(write(1, 0, 10, Some(2))),
                Step::Advance(20),
                Step::Ingest(w),
                Step::Ingest(r),
                Step::Advance(41),
            ];
            let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
            feed(&mut stream, &cluster, &steps);
            assert_eq!(stream.lane(), StreamLane::Deferred, "case {case}");
            let reads = cluster.reads.get();
            stream.advance_watermark(50, cluster.source());
            assert_eq!(cluster.reads.get(), reads, "case {case}: deferred reads nothing");
            let verdict = stream.finish(&cluster.take_history());
            assert_eq!(verdict, ids(&[1, 2, 3]), "case {case}");
        }
    }

    /// What the tag-order lane keeps per uncertified commit: its rank and
    /// RESP, no record.  It may shrink; it must not silently widen.
    #[test]
    fn a_held_entry_cannot_silently_widen() {
        assert!(std::mem::size_of::<Reverse<Held>>() <= 40);
    }
}
