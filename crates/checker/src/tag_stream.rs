//! Lemma 20 over a commit stream: [`TagOrderStream`] certifies a tagged
//! history while it commits, and hands over to the semantic
//! [`StreamChecker`] when tags cannot decide.
//!
//! [`crate::strict::TagOrderChecker`] sorts a finished history by rank
//! `(tag, WRITE before READ, invocation, id)` and checks Lemma 20's P2–P4
//! over that order.  The stream checks the same conditions on the same
//! order, incrementally:
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
//! whole stream passes, [`TagOrderStream::finish`] returns exactly
//! `TagOrderChecker`'s verdict, witness included.
//!
//! **Giving up.**  An untagged commit, or a P2, P3 or P4 failure, means
//! the tags cannot decide; the verdict then comes from [`StreamChecker`],
//! so no category changes:
//!
//! * before any commit is certified, the checker is replayed exactly the
//!   calls received so far and takes every later one
//!   ([`StreamLane::Semantic`]) — an untagged protocol gives up at its
//!   first commit and is checked exactly as by a [`StreamChecker`] alone;
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
//!
//! let mut stream = TagOrderStream::new();
//! stream.ingest(w.clone());
//! stream.advance_watermark(20); // the READ was invoked at 20
//! assert_eq!(stream.certified(), 1);
//! stream.ingest(r.clone());
//! history.push(w);
//! history.push(r);
//! assert_eq!(stream.finish(&history), Verdict::Serializable(vec![TxId(0), TxId(1)]));
//! ```

use crate::ot::SequentialOt;
use crate::stream::StreamChecker;
use crate::strict::Verdict;
use snow_core::{History, Tag, TxId, TxKind, TxRecord};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// A transaction's group in the tag order `≺`: its tag, WRITEs (0) before
/// READs (1).
type Group = (Tag, u8);

/// `TagOrderChecker`'s sort key: group, then invocation time, then id.
type Rank = (Group, u64, TxId);

/// A commit waiting for the watermark to pass its response.
#[derive(Debug)]
struct Held {
    rank: Rank,
    resp: u64,
    rec: TxRecord,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}

impl Eq for Held {}

impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Held {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// A call received before the first certification, kept so a hand-over can
/// replay it to a [`StreamChecker`].
#[derive(Debug)]
enum Call {
    /// A held commit, found again by its rank.
    Ingest(Rank),
    /// An aborted commit: not held, so kept whole.
    Aborted(TxRecord),
    Advance(u64),
}

/// Which engine a [`TagOrderStream`] is running on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLane {
    /// Certifying by tag order (Lemma 20).
    TagOrder,
    /// Tags could not decide before anything was certified: a
    /// [`StreamChecker`] has taken every call, past and future.
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
            Engine::Semantic(_) => StreamLane::Semantic,
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
    /// commit (RESP) order, as for [`StreamChecker::ingest`].
    pub fn ingest(&mut self, rec: TxRecord) {
        match &mut self.engine {
            Engine::Tags(tags) => {
                if let Err(rec) = tags.ingest(rec) {
                    self.hand_over(Some(*rec));
                }
            }
            Engine::Semantic(checker) => checker.ingest(rec),
            Engine::Deferred => {}
        }
    }

    /// Advances the certification frontier: the caller promises that every
    /// transaction ingested from now on was invoked at or after
    /// `watermark`, as for [`StreamChecker::advance_watermark`].
    pub fn advance_watermark(&mut self, watermark: u64) {
        match &mut self.engine {
            Engine::Tags(tags) => {
                if tags.advance(watermark).is_err() {
                    self.hand_over(None);
                }
            }
            Engine::Semantic(checker) => checker.advance_watermark(watermark),
            Engine::Deferred => {}
        }
    }

    /// Certifies the rest and returns the verdict.  `history` is the run's
    /// whole history: the semantic engine reads its incomplete
    /// transactions, and the deferred lane all of it.
    pub fn finish(mut self, history: &History) -> Verdict {
        if let Engine::Tags(tags) = &mut self.engine {
            if tags.certify(None).is_ok() {
                return Verdict::Serializable(std::mem::take(&mut tags.witness));
            }
            self.hand_over(None);
        }
        match self.engine {
            Engine::Tags(_) => unreachable!("the tag-order lane finished above"),
            Engine::Semantic(mut checker) => {
                for rec in history.records.iter().filter(|r| !r.is_complete()) {
                    checker.ingest_incomplete(rec.clone());
                }
                checker.finish()
            }
            Engine::Deferred => StreamChecker::check(history),
        }
    }

    /// Leaves the tag-order lane.  `pending` is a commit that was refused
    /// on arrival, so is neither held nor in the call log.
    fn hand_over(&mut self, pending: Option<TxRecord>) {
        let Engine::Tags(tags) = std::mem::replace(&mut self.engine, Engine::Deferred) else {
            return;
        };
        let Some(calls) = tags.calls else {
            return; // something is certified: deferred
        };
        let mut held: BTreeMap<Rank, TxRecord> =
            tags.held.into_iter().map(|Reverse(h)| (h.rank, h.rec)).collect();
        let mut checker = StreamChecker::new();
        for call in calls {
            match call {
                Call::Ingest(rank) => {
                    checker.ingest(held.remove(&rank).expect("nothing is certified yet"))
                }
                Call::Aborted(rec) => checker.ingest(rec),
                Call::Advance(watermark) => checker.advance_watermark(watermark),
            }
        }
        if let Some(rec) = pending {
            checker.ingest(rec);
        }
        self.engine = Engine::Semantic(Box::new(checker));
    }
}

impl Tags {
    /// P2 on arrival, then hold.  `Err` returns a commit the tags cannot
    /// place: untagged, or ranked below a commit that precedes it.
    fn ingest(&mut self, rec: TxRecord) -> Result<(), Box<TxRecord>> {
        let tag = match &rec.outcome {
            Some(outcome) if outcome.is_aborted() => {
                // Constraint-free and untagged, as `TagOrderChecker` treats it.
                if let Some(calls) = &mut self.calls {
                    calls.push(Call::Aborted(rec));
                }
                return Ok(());
            }
            outcome => outcome.as_ref().and_then(|o| o.tag()),
        };
        let (Some(tag), Some(resp)) = (tag, rec.responded_at) else {
            return Err(Box::new(rec));
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
            return Err(Box::new(rec));
        }
        let top = self.maxima.back().map(|m| m.1).or(self.floor);
        self.maxima.push_back((resp, top.map_or(group, |t| t.max(group))));
        let rank = (group, rec.invoked_at, rec.tx_id);
        if let Some(calls) = &mut self.calls {
            calls.push(Call::Ingest(rank));
        }
        self.held.push(Reverse(Held { rank, resp, rec }));
        Ok(())
    }

    /// Moves the watermark and certifies what it closes.
    fn advance(&mut self, watermark: u64) -> Result<(), ()> {
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
        self.certify(Some(watermark))
    }

    /// Certifies the rank-prefix of held commits that responded before
    /// `until` (all of them for `None`): P3, P4, then the witness.  On a
    /// failure before the first certification the failing commit stays
    /// held, so a hand-over replays it.
    fn certify(&mut self, until: Option<u64>) -> Result<(), ()> {
        loop {
            let next = match self.held.peek_mut() {
                Some(top) if until.is_none_or(|w| top.0.resp < w) => PeekMut::pop(top).0,
                _ => break,
            };
            let tag = next.rank.0 .0;
            let is_write = next.rank.0 .1 == 0;
            if (is_write && self.last_write == Some(tag)) || self.replay.apply(&next.rec).is_err()
            {
                if self.calls.is_some() {
                    self.held.push(Reverse(next));
                }
                return Err(());
            }
            if is_write {
                self.last_write = Some(tag);
            }
            self.witness.push(next.rec.tx_id);
            self.calls = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strict::TagOrderChecker;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, TxOutcome, TxSpec, Value, WriteOutcome,
    };

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

    enum Step {
        Ingest(TxRecord),
        Advance(u64),
    }

    /// Feeds `steps` to a fresh stream; returns it with the history of the
    /// ingested records.
    fn feed(steps: &[Step]) -> (TagOrderStream, History) {
        let (mut stream, mut history) = (TagOrderStream::new(), History::new());
        for step in steps {
            match step {
                Step::Ingest(rec) => {
                    stream.ingest(rec.clone());
                    history.push(rec.clone());
                }
                Step::Advance(w) => stream.advance_watermark(*w),
            }
        }
        (stream, history)
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

    #[test]
    fn a_tagged_stream_is_certified_as_it_commits_with_the_tag_order_witness() {
        let mut aborted = write(3, 12, 14, None);
        aborted.outcome = Some(TxOutcome::Aborted);
        let steps = [
            Step::Ingest(write(1, 0, 10, Some(2))),
            Step::Ingest(read(2, 5, 11, 1, 0)),
            Step::Ingest(aborted),
            Step::Advance(15),
            Step::Ingest(write(4, 15, 20, Some(3))),
            Step::Ingest(read(5, 16, 22, 3, 4)),
            Step::Ingest(read(6, 15, 23, 2, 1)),
        ];
        let (stream, history) = feed(&steps);
        // The READ at tag 1 precedes the WRITE at tag 2; the aborted
        // commit takes no place.
        assert_eq!((stream.lane(), stream.certified()), (StreamLane::TagOrder, 2));
        let verdict = stream.finish(&history);
        assert_eq!(verdict, TagOrderChecker::new().check(&history));
        let ids = |ids: &[u64]| Verdict::Serializable(ids.iter().map(|&i| TxId(i)).collect());
        assert_eq!(verdict, ids(&[2, 1, 6, 4, 5]));
    }

    #[test]
    fn an_untagged_commit_hands_every_call_so_far_to_the_semantic_engine() {
        let mut aborted = write(2, 1, 3, None);
        aborted.outcome = Some(TxOutcome::Aborted);
        let steps = [
            Step::Ingest(write(1, 0, 2, Some(2))),
            Step::Ingest(aborted),
            Step::Advance(1),
            Step::Ingest(write(3, 1, 4, None)),
            Step::Advance(5),
            Step::Ingest(read(4, 5, 6, 9, 3)),
        ];
        let (stream, history) = feed(&steps);
        assert_eq!(stream.lane(), StreamLane::Semantic);
        let verdict = stream.finish(&history);
        assert!(verdict.is_serializable(), "{verdict:?}");
        assert_eq!(verdict, semantic(&steps));
    }

    /// The READ (tag 1) ranks before the WRITE it observed (tag 2): P4
    /// fails on the very first certification, which is undone, so the
    /// semantic engine replays both commits.
    #[test]
    fn a_failure_at_the_first_certification_hands_over_before_it() {
        let steps = [
            Step::Ingest(read(1, 0, 5, 1, 2)),
            Step::Ingest(write(2, 0, 10, Some(2))),
            Step::Advance(11),
        ];
        let (stream, history) = feed(&steps);
        assert_eq!(stream.lane(), StreamLane::Semantic);
        let verdict = stream.finish(&history);
        assert_eq!(verdict, semantic(&steps));
        assert_eq!(verdict, Verdict::Serializable(vec![TxId(2), TxId(1)]));
    }

    /// Tags that break after a certified prefix (P2: the READ at tag 3
    /// starts after the tag-5 WRITE it observed completed; P4: a READ
    /// ranked before the WRITE it observed; P3: two writes at one tag) —
    /// the stream defers, and the whole history, serializable each time,
    /// goes to the semantic engine.
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
            ];
            let (mut stream, history) = feed(&steps);
            stream.advance_watermark(41);
            assert_eq!(stream.lane(), StreamLane::Deferred, "case {case}");
            let ids = vec![TxId(1), TxId(2), TxId(3)];
            assert_eq!(stream.finish(&history), Verdict::Serializable(ids), "case {case}");
        }
    }
}
