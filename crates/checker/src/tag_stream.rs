//! Lemma 20 over a commit stream: [`TagOrderStream`] certifies a tagged
//! history while it commits, and leaves the verdict to the semantic
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
//! stream never copies one: [`TagOrderStream::ingest`] borrows it and
//! keeps its rank and RESP, and certification reads it back by id from a
//! **record source**, `Fn(TxId) -> Option<&TxRecord>`: mid-run the
//! cluster's `record` ([`TagOrderStream::advance_watermark`] takes it), for
//! a finished [`History`] its O(1) [`History::get`]
//! ([`TagOrderStream::feed_history`], [`TagOrderStream::finish`]).
//!
//! **Giving up.**  An untagged commit, or a P2, P3 or P4 failure, means
//! the tags cannot decide.  The stream drops the tag-order lane and reads
//! nothing more ([`StreamLane::Deferred`]), and
//! [`TagOrderStream::finish`] returns [`StreamChecker::check`] on the whole
//! history: Lemma 20 is only sufficient, so no category changes, and a
//! certified prefix is a prefix of the tag order, not necessarily of every
//! valid order, so the semantic engine sees all of it.
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
//! stream.advance_watermark(20, |tx| history.get(tx));
//! assert_eq!(stream.certified(), 1);
//! stream.ingest(&history.records[1]);
//! assert_eq!(stream.finish(&history), Verdict::Serializable(vec![TxId(0), TxId(1)]));
//! ```

use crate::ot::SequentialOt;
use crate::stream::{hindsight_commits, StreamChecker};
use crate::strict::Verdict;
use snow_core::{History, Tag, TxId, TxKind, TxRecord};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A transaction's group in the tag order `≺`: its tag, WRITEs (0) before
/// READs (1).
type Group = (Tag, u8);

/// A commit's place in the witness: group, then invocation time, then id.
type Rank = (Group, u64, TxId);

/// A commit waiting for the watermark to pass its response; its rank ends
/// with its id, the record source's key.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Held {
    rank: Rank,
    resp: u64,
}

/// Which lane a [`TagOrderStream`] is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLane {
    /// Certifying by tag order (Lemma 20).
    TagOrder,
    /// Tags could not decide: [`TagOrderStream::finish`] checks the whole
    /// history with [`StreamChecker::check`].
    Deferred,
}

/// Lemma 20 checked incrementally over a commit stream, with the semantic
/// stream engine behind it.  See the [module docs](self).
#[derive(Debug)]
pub struct TagOrderStream {
    /// The tag-order lane; `None` once the tags could not decide.
    tags: Option<Tags>,
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
}

impl Default for TagOrderStream {
    fn default() -> Self {
        TagOrderStream { tags: Some(Tags::default()) }
    }
}

impl TagOrderStream {
    /// Creates a stream on the tag-order lane.
    pub fn new() -> Self {
        TagOrderStream::default()
    }

    /// The lane the stream is on.
    pub fn lane(&self) -> StreamLane {
        match self.tags {
            Some(_) => StreamLane::TagOrder,
            None => StreamLane::Deferred,
        }
    }

    /// Commits certified by tag order so far (0 off the tag-order lane).
    pub fn certified(&self) -> usize {
        self.tags.as_ref().map_or(0, |tags| tags.witness.len())
    }

    /// Ingests the next committed transaction.  Transactions must arrive in
    /// commit (RESP) order, as for [`StreamChecker::ingest`], and each must
    /// stay readable, unchanged, through the record sources the stream is
    /// handed later.  The stream keeps no copy of `rec`.
    #[inline]
    pub fn ingest(&mut self, rec: &TxRecord) {
        if self.tags.as_mut().is_some_and(|tags| tags.ingest(rec).is_err()) {
            self.tags = None;
        }
    }

    /// Advances the certification frontier: the caller promises that every
    /// transaction ingested from now on was invoked at or after
    /// `watermark`, as for [`StreamChecker::advance_watermark`].  `records`
    /// is the record source: every commit ingested so far must be found.
    pub fn advance_watermark<'s>(
        &mut self,
        watermark: u64,
        records: impl Fn(TxId) -> Option<&'s TxRecord>,
    ) {
        if self.tags.as_mut().is_some_and(|tags| tags.advance(watermark, &records).is_err()) {
            self.tags = None;
        }
    }

    /// Feeds a finished history: its completed records in commit (RESP)
    /// order, the watermark advanced after each as tightly as hindsight
    /// allows, by the rule [`StreamChecker::feed_history`] feeds a
    /// [`StreamChecker`] by.  [`TagOrderStream::finish`] on the same
    /// history then gives the verdict; [`crate::check_auto`] is the two
    /// calls.  Once the tags cannot decide, the rest is not walked: an
    /// untagged history stops at its first commit.
    pub fn feed_history(&mut self, history: &History) {
        self.feed_commits(history, &hindsight_commits(history));
    }

    /// [`TagOrderStream::feed_history`] with `history`'s commit list
    /// already built (`hindsight_commits`).
    pub(crate) fn feed_commits(&mut self, history: &History, commits: &[(&TxRecord, u64)]) {
        for &(rec, watermark) in commits {
            self.ingest(rec);
            self.advance_watermark(watermark, |tx| history.get(tx));
            if self.tags.is_none() {
                return;
            }
        }
    }

    /// Certifies the rest and returns the verdict: the tag order's witness,
    /// or, when tags cannot decide, [`StreamChecker::check`]`(history)`.
    /// `history` is the run's whole history, and the record source held
    /// commits are read back from.
    pub fn finish(self, history: &History) -> Verdict {
        self.finish_tags(history).unwrap_or_else(|| StreamChecker::check(history))
    }

    /// The tag order's verdict on the rest, `None` when tags cannot decide.
    pub(crate) fn finish_tags(self, history: &History) -> Option<Verdict> {
        let mut tags = self.tags?;
        tags.certify(None, &|tx| history.get(tx)).ok()?;
        Some(Verdict::Serializable(tags.witness))
    }
}

/// The ingested commit `tx`, read back from a record source.
fn read_back<'s>(records: &impl Fn(TxId) -> Option<&'s TxRecord>, tx: TxId) -> &'s TxRecord {
    records(tx).unwrap_or_else(|| panic!("the record source lost ingested commit {tx}"))
}

impl Tags {
    /// P2 on arrival, then hold.  `Err` is a commit the tags cannot place:
    /// untagged, or ranked below a commit that precedes it.
    fn ingest(&mut self, rec: &TxRecord) -> Result<(), ()> {
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
        records: &impl Fn(TxId) -> Option<&'s TxRecord>,
    ) -> Result<(), ()> {
        if watermark <= self.watermark {
            return Ok(());
        }
        self.watermark = watermark;
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
        records: &impl Fn(TxId) -> Option<&'s TxRecord>,
    ) -> Result<(), ()> {
        loop {
            let Held { rank: ((tag, kind), _, tx), .. } = match self.held.peek_mut() {
                Some(top) if until.is_none_or(|w| top.0.resp < w) => PeekMut::pop(top).0,
                _ => break,
            };
            let is_write = kind == 0;
            if (is_write && self.last_write == Some(tag))
                || self.replay.apply(read_back(records, tx)).is_err()
            {
                return Err(());
            }
            if is_write {
                self.last_write = Some(tag);
            }
            self.witness.push(tx);
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
        fn source<'a>(&'a self) -> impl Fn(TxId) -> Option<&'a TxRecord> + 'a {
            |tx| {
                self.reads.set(self.reads.get() + 1);
                self.records.get(&tx)
            }
        }

        /// The history a driver takes at the end: every record, in
        /// invocation order.
        fn take_history(&self) -> History {
            let mut records: Vec<TxRecord> = self.records.values().cloned().collect();
            records.sort_by_key(|r| (r.invoked_at, r.tx_id));
            History::from(records)
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
            let mut records = Vec::from(cluster.take_history());
            if !in_order {
                records.reverse();
            }
            let history = History::from(records);
            drop(cluster);
            assert_eq!(stream.certified(), 0);
            assert_eq!(stream.finish(&history), ids(&[2, 1, 4, 5]), "in order: {in_order}");
        }
    }

    /// An untagged commit before any certification: the stream drops the
    /// tag-order lane at once and reads nothing back, the watermark after
    /// the give-up included, and `finish` hands every call so far — the
    /// whole taken history — to the semantic engine, whose verdict it gives.
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
        assert_eq!((stream.lane(), cluster.reads.get()), (StreamLane::Deferred, 0));
        feed(&mut stream, &cluster, &steps[4..]);
        assert_eq!(cluster.reads.get(), 0, "nothing is read back after the give-up");
        let verdict = stream.finish(&cluster.take_history());
        assert!(verdict.is_serializable(), "{verdict:?}");
        assert_eq!(verdict, semantic(&steps));
    }

    /// A give-up with no watermark after it: nothing is read back before
    /// `finish`, which gives the semantic engine's verdict on the taken
    /// history.
    #[test]
    fn a_hand_over_at_finish_reads_the_taken_history() {
        let steps = [
            Step::Ingest(write(1, 0, 2, Some(2))),
            Step::Advance(1),
            Step::Ingest(write(3, 1, 4, None)),
            Step::Ingest(read(4, 3, 6, 9, 3)),
        ];
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
        feed(&mut stream, &cluster, &steps);
        assert_eq!((stream.lane(), cluster.reads.get()), (StreamLane::Deferred, 0));
        let verdict = stream.finish(&cluster.take_history());
        assert!(verdict.is_serializable(), "{verdict:?}");
        assert_eq!(verdict, semantic(&steps));
    }

    /// The READ (tag 1) ranks before the WRITE it observed (tag 2): P4
    /// fails on the very first certification, which read the READ back.
    /// Nothing is read back after it, and `finish` gives the semantic
    /// engine's verdict on the whole history.
    #[test]
    fn a_failure_during_the_first_certification_leaves_the_verdict_to_the_semantic_engine() {
        let steps = [
            Step::Ingest(read(1, 0, 5, 1, 2)),
            Step::Ingest(write(2, 0, 10, Some(2))),
            Step::Advance(11),
        ];
        let (mut stream, cluster) = (TagOrderStream::new(), Cluster::of(&steps));
        feed(&mut stream, &cluster, &steps);
        assert_eq!((stream.lane(), stream.certified()), (StreamLane::Deferred, 0));
        assert_eq!(cluster.reads.get(), 1, "the failed certification's one read");
        stream.advance_watermark(20, cluster.source());
        assert_eq!(cluster.reads.get(), 1, "nothing is read back after the give-up");
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
