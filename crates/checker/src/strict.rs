//! Strict serializability: the verdict type, the complete search, and
//! [`check_auto`], which decides a finished history.
//!
//! * [`SearchChecker`] — a complete backtracking search for a serialization
//!   order: a total order of the completed transactions that (i) respects
//!   real-time precedence and (ii) replays correctly against the sequential
//!   `OT` semantics.  Incomplete WRITEs may be included or omitted (they may
//!   or may not have taken effect), mirroring Definition 7.1's treatment of
//!   incomplete transactions; incomplete READs are ignored.
//! * [`check_auto`] — **Lemma 20**'s tag order ([`TagOrderStream`]) fed the
//!   finished history, with the semantic stream engine behind it.

use crate::ot::SequentialOt;
use crate::stream::{hindsight_commits, StreamChecker};
use crate::tag_stream::TagOrderStream;
use snow_core::{History, TxId, TxKind, TxRecord};
use std::collections::BTreeSet;

/// The outcome of a strict-serializability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history is strictly serializable; the witness is one valid
    /// serialization order.
    Serializable(Vec<TxId>),
    /// The history is **not** strictly serializable; the string explains the
    /// violation found.
    NotSerializable(String),
    /// The checker could not decide: the history is above the search
    /// checker's cap, or the stream engine's window re-solve ran out of
    /// splitting budget on a history too large for the search to take over.
    Unknown(String),
}

impl Verdict {
    /// True if the verdict is [`Verdict::Serializable`].
    pub fn is_serializable(&self) -> bool {
        matches!(self, Verdict::Serializable(_))
    }

    /// True if the verdict is [`Verdict::NotSerializable`].
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::NotSerializable(_))
    }
}

/// Complete backtracking checker (no tags needed).
#[derive(Debug, Clone)]
pub struct SearchChecker {
    /// See [`SearchChecker::with_max_transactions`].
    max_transactions: usize,
}

impl Default for SearchChecker {
    fn default() -> Self {
        SearchChecker { max_transactions: 24 }
    }
}

impl SearchChecker {
    /// Creates a checker with the default transaction cap.
    pub fn new() -> Self {
        SearchChecker::default()
    }

    /// Creates a checker with an explicit transaction cap: the most
    /// transactions the search will attempt (24 by default; the search is
    /// exponential in the worst case).
    pub fn with_max_transactions(max_transactions: usize) -> Self {
        SearchChecker { max_transactions }
    }

    /// Checks `history` by searching for a valid serialization order.
    pub fn check(&self, history: &History) -> Verdict {
        // Completed transactions must all be placed; incomplete WRITEs are
        // optional (they may or may not have taken effect); incomplete READs
        // are ignored.  The completed ones are tried in commit order, the
        // order the stream engine is fed, so the witness does not depend on
        // the order of `history.records`.
        let mut mandatory: Vec<&TxRecord> = history.completed().collect();
        mandatory.sort_unstable_by_key(|r| (r.responded_at, r.tx_id));
        let optional: Vec<&TxRecord> = history
            .records
            .iter()
            .filter(|r| !r.is_complete() && r.kind() == TxKind::Write && r.outcome.is_some())
            .collect();
        let all: Vec<&TxRecord> = mandatory.iter().chain(optional.iter()).copied().collect();
        if all.len() > self.max_transactions {
            return Verdict::Unknown(format!(
                "history has {} transactions, above the search cap of {}",
                all.len(),
                self.max_transactions
            ));
        }

        // Real-time precedence edges among the transactions considered.
        let n = all.len();
        let mandatory_count = mandatory.len();
        let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j && all[i].precedes(all[j]) {
                    preds[j].insert(i);
                }
            }
        }

        let mut placed: Vec<bool> = vec![false; n];
        let mut skipped: Vec<bool> = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let found = Self::search(
            &all,
            mandatory_count,
            &preds,
            &mut placed,
            &mut skipped,
            &mut order,
            &SequentialOt::new(),
        );
        match found {
            Some(witness) => {
                Verdict::Serializable(witness.into_iter().map(|i| all[i].tx_id).collect())
            }
            None => Verdict::NotSerializable(
                "no total order consistent with real time and the sequential OT semantics exists"
                    .to_string(),
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        all: &[&TxRecord],
        mandatory_count: usize,
        preds: &[BTreeSet<usize>],
        placed: &mut Vec<bool>,
        skipped: &mut Vec<bool>,
        order: &mut Vec<usize>,
        state: &SequentialOt,
    ) -> Option<Vec<usize>> {
        if (0..mandatory_count).all(|i| placed[i]) {
            return Some(order.clone());
        }
        for i in 0..all.len() {
            if placed[i] || skipped[i] {
                continue;
            }
            // All real-time predecessors must already be placed or (for
            // optional transactions) skipped.
            if !preds[i].iter().all(|p| placed[*p] || skipped[*p]) {
                continue;
            }
            // Try placing i next.
            let mut next_state = state.clone();
            if next_state.apply(all[i]).is_ok() {
                placed[i] = true;
                order.push(i);
                if let Some(w) =
                    Self::search(all, mandatory_count, preds, placed, skipped, order, &next_state)
                {
                    return Some(w);
                }
                order.pop();
                placed[i] = false;
            }
            // For optional (incomplete write) transactions, also try skipping.
            if i >= mandatory_count {
                skipped[i] = true;
                if let Some(w) =
                    Self::search(all, mandatory_count, preds, placed, skipped, order, state)
                {
                    return Some(w);
                }
                skipped[i] = false;
            }
        }
        None
    }
}

/// Checks `history` for strict serializability: a [`TagOrderStream`] fed
/// the finished history ([`TagOrderStream::feed_history`]), then its
/// verdict ([`TagOrderStream::finish`]).  The commit list in RESP order is
/// built once, and where the tags cannot decide the semantic engine is fed
/// from the same list.
///
/// A history whose tags certify it (Algorithms A, B and C without faults)
/// is accepted by Lemma 20, its witness the tag order.  Lemma 20 is a
/// *sufficient* condition, so where the tags cannot decide — an untagged
/// transaction, or a P2, P3 or P4 failure — the verdict is
/// [`crate::StreamChecker::check`]`(history)`, the semantic stream
/// engine's: it takes version orders from tags where they settle them,
/// re-solves only its live window where they do not, and hands a history
/// of at most 24 transactions that it cannot decide to [`SearchChecker`].
/// The result does not depend on the order of `history.records`.
///
/// ```
/// use snow_checker::strict::check_auto;
/// use snow_core::{
///     ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, Tag, TxId, TxOutcome,
///     TxRecord, TxSpec, Value, WriteOutcome,
/// };
///
/// let mut history = History::new();
/// // WRITE x=1 (tag 1), completing before the READ starts.
/// let mut w = TxRecord::invoked(
///     TxId(0),
///     ClientId(0),
///     TxSpec::write(vec![(ObjectId(0), Value(1))]),
///     0,
/// );
/// w.responded_at = Some(10);
/// let key = Key::new(1, ClientId(0));
/// w.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: Some(Tag(1)) }));
/// history.push(w);
/// // READ x observing that write, at the same tag.
/// let mut r = TxRecord::invoked(TxId(1), ClientId(1), TxSpec::read(vec![ObjectId(0)]), 20);
/// r.responded_at = Some(30);
/// r.outcome = Some(TxOutcome::Read(ReadOutcome {
///     reads: vec![ObjectRead { object: ObjectId(0), key, value: Value(1) }],
///     tag: Some(Tag(1)),
/// }));
/// history.push(r);
///
/// // Accepted by tag order.
/// assert!(check_auto(&history).is_serializable());
///
/// // Without tags, the stream engine decides the same history.
/// let mut records = Vec::from(history);
/// for rec in &mut records {
///     match rec.outcome.as_mut() {
///         Some(TxOutcome::Write(w)) => w.tag = None,
///         Some(TxOutcome::Read(r)) => r.tag = None,
///         _ => {}
///     }
/// }
/// assert!(check_auto(&History::from(records)).is_serializable());
/// ```
pub fn check_auto(history: &History) -> Verdict {
    // One commit list for both engines: the stream's feed and, when tags
    // cannot decide, the semantic engine's.
    let commits = hindsight_commits(history);
    let mut stream = TagOrderStream::new();
    stream.feed_commits(history, &commits);
    stream.finish_tags(history).unwrap_or_else(|| StreamChecker::check_commits(history, &commits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_stream::StreamLane;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, Tag, TxOutcome, TxSpec, Value,
        WriteOutcome,
    };

    fn write(id: u64, client: u32, seq: u64, objects: &[u32], inv: u64, resp: u64, tag: Option<u64>) -> TxRecord {
        let spec = TxSpec::write(objects.iter().map(|o| (ObjectId(*o), Value(seq))).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(client), spec, inv);
        rec.responded_at = Some(resp);
        rec.outcome = Some(TxOutcome::Write(WriteOutcome {
            key: Key::new(seq, ClientId(client)),
            tag: tag.map(Tag),
        }));
        rec
    }

    fn read(id: u64, reads: Vec<(u32, Key)>, inv: u64, resp: u64, tag: Option<u64>) -> TxRecord {
        let spec = TxSpec::read(reads.iter().map(|(o, _)| ObjectId(*o)).collect());
        let mut rec = TxRecord::invoked(TxId(id), ClientId(0), spec, inv);
        rec.responded_at = Some(resp);
        rec.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: reads
                .into_iter()
                .map(|(o, k)| ObjectRead {
                    object: ObjectId(o),
                    key: k,
                    value: Value(0),
                })
                .collect(),
            tag: tag.map(Tag),
        }));
        rec
    }

    fn k(seq: u64, client: u32) -> Key {
        Key::new(seq, ClientId(client))
    }

    /// `h` through a [`TagOrderStream`] as `check_auto` feeds it: the lane
    /// it ends on, and its verdict, which is `check_auto`'s.
    fn fed(h: &History) -> (StreamLane, Verdict) {
        let mut stream = TagOrderStream::new();
        stream.feed_history(h);
        let lane = stream.lane();
        let verdict = stream.finish(h);
        assert_eq!(verdict, check_auto(h));
        (lane, verdict)
    }

    #[test]
    fn tag_checker_accepts_a_clean_history() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        h.push(read(2, vec![(0, k(1, 1)), (1, k(1, 1))], 20, 30, Some(2)));
        let (lane, v) = fed(&h);
        assert_eq!(lane, StreamLane::TagOrder);
        assert_eq!(v, Verdict::Serializable(vec![TxId(1), TxId(2)]));
    }

    #[test]
    fn tag_checker_rejects_stale_reads() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        // A read at tag 2 returning κ0 for object 1 is stale (P4).
        h.push(read(2, vec![(0, k(1, 1)), (1, Key::initial())], 20, 30, Some(2)));
        let (lane, v) = fed(&h);
        assert_ne!(lane, StreamLane::TagOrder);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn tag_checker_rejects_real_time_inversions() {
        let mut h = History::new();
        // The READ carries the WRITE's tag, so WRITE ≺ READ, yet the READ
        // completes before the WRITE is invoked: a P2 violation.  It also
        // returns the WRITE's version before the WRITE began, which no
        // order explains.
        h.push(read(1, vec![(0, k(1, 1))], 0, 5, Some(2)));
        h.push(write(2, 1, 1, &[0], 10, 20, Some(2)));
        let (lane, v) = fed(&h);
        assert_ne!(lane, StreamLane::TagOrder);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn tag_checker_rejects_duplicate_write_tags() {
        // Two writes share tag 2 (P3): the tag order cannot certify them.
        // They touch disjoint objects and nothing reads them, so the
        // semantic engine serializes them.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, Some(2)));
        h.push(write(2, 2, 1, &[1], 0, 10, Some(2)));
        let (lane, v) = fed(&h);
        assert_eq!(lane, StreamLane::Deferred, "P3 fails after the first write certifies");
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn tag_checker_returns_unknown_without_tags() {
        // An untagged commit leaves the tag order before anything is
        // certified; the semantic engine decides the whole history.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, None));
        let (lane, v) = fed(&h);
        assert_eq!(lane, StreamLane::Deferred);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn search_checker_accepts_a_serializable_untagged_history() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, None));
        h.push(read(2, vec![(0, k(1, 1)), (1, k(1, 1))], 20, 30, None));
        let v = SearchChecker::new().check(&h);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn search_checker_accepts_concurrent_reads_choosing_either_side() {
        let mut h = History::new();
        // Write concurrent with a read that returns the OLD value: fine,
        // the read serializes before the write.
        h.push(write(1, 1, 1, &[0, 1], 0, 100, None));
        h.push(read(2, vec![(0, Key::initial()), (1, Key::initial())], 10, 20, None));
        assert!(SearchChecker::new().check(&h).is_serializable());
        // Or the NEW value: serializes after.
        let mut h2 = History::new();
        h2.push(write(1, 1, 1, &[0, 1], 0, 100, None));
        h2.push(read(2, vec![(0, k(1, 1)), (1, k(1, 1))], 10, 20, None));
        assert!(SearchChecker::new().check(&h2).is_serializable());
    }

    #[test]
    fn search_checker_rejects_torn_reads_of_a_completed_write() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, None));
        h.push(read(2, vec![(0, k(1, 1)), (1, Key::initial())], 20, 30, None));
        let v = SearchChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn search_checker_rejects_the_fig5_shape() {
        // w1 writes o1; w2 writes o1; w3 writes o0 after w2 completes.
        // The READ returns w3's value for o0 and w1's for o1 → not strictly
        // serializable.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[1], 0, 10, None)); // w1
        h.push(write(2, 1, 2, &[1], 20, 30, None)); // w2
        h.push(write(3, 2, 1, &[0], 40, 50, None)); // w3 (after w2)
        h.push(read(4, vec![(0, k(1, 2)), (1, k(1, 1))], 5, 60, None));
        let v = SearchChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn search_checker_rejects_inverted_consecutive_reads() {
        // The α10 shape of the three-client proof: R2 completes before R1
        // starts, R2 sees the new version but R1 sees the old one.
        let mut h = History::new();
        h.push(write(1, 2, 1, &[0, 1], 0, 10, None)); // W writes both objects
        h.push(read(2, vec![(0, k(1, 2)), (1, k(1, 2))], 20, 30, None)); // R2 new
        h.push(read(3, vec![(0, Key::initial()), (1, Key::initial())], 40, 50, None)); // R1 old
        let v = SearchChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn search_checker_handles_incomplete_writes_both_ways() {
        // An incomplete write may or may not be visible.
        let mut pending = write(1, 1, 1, &[0], 0, 0, None);
        pending.responded_at = None; // incomplete, but outcome (key) known
        let mut h = History::new();
        h.push(pending.clone());
        h.push(read(2, vec![(0, k(1, 1))], 10, 20, None)); // observed it
        assert!(SearchChecker::new().check(&h).is_serializable());

        let mut h2 = History::new();
        h2.push(pending);
        h2.push(read(2, vec![(0, Key::initial())], 10, 20, None)); // did not
        assert!(SearchChecker::new().check(&h2).is_serializable());
    }

    #[test]
    fn search_checker_gives_up_above_the_cap() {
        let mut h = History::new();
        for i in 0..30 {
            h.push(write(i, 1, i, &[0], i * 10, i * 10 + 5, None));
        }
        assert!(matches!(SearchChecker::new().check(&h), Verdict::Unknown(_)));
        assert!(SearchChecker::with_max_transactions(64).check(&h).is_serializable());
    }

    #[test]
    fn dispatcher_picks_the_right_engine() {
        let mut tagged = History::new();
        tagged.push(write(1, 1, 1, &[0], 0, 10, Some(2)));
        assert_eq!(fed(&tagged), (StreamLane::TagOrder, Verdict::Serializable(vec![TxId(1)])));
        let mut untagged = History::new();
        untagged.push(write(1, 1, 1, &[0], 0, 10, None));
        assert_eq!(fed(&untagged), (StreamLane::Deferred, Verdict::Serializable(vec![TxId(1)])));
    }

    #[test]
    fn check_auto_overrides_tag_convictions_that_are_semantically_serializable() {
        // W1 wholly precedes W2 in real time but carries the larger tag —
        // a P2 violation under Lemma 20, yet the history (two writes on
        // disjoint objects, no reads) is trivially serializable.  The
        // semantic engine must win.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, Some(2)));
        h.push(write(2, 2, 1, &[1], 20, 30, Some(1)));
        let (lane, v) = fed(&h);
        assert_ne!(lane, StreamLane::TagOrder);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn check_auto_convicts_a_stale_tagged_read_at_its_commit() {
        // A stale read: tag order and semantics agree it is a violation,
        // and the conviction names the READ's commit.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        h.push(read(2, vec![(0, k(1, 1)), (1, Key::initial())], 20, 30, Some(2)));
        match check_auto(&h) {
            Verdict::NotSerializable(why) => {
                assert!(why.contains("(commit #1)"), "expected the READ's commit: {why}")
            }
            v => panic!("expected a conviction, got {v:?}"),
        }
    }

    /// Builds a large all-tagged history: interleaved writes and reads
    /// over 8 objects, tags consistent with real time, every read
    /// returning the latest preceding write's key for its object.
    fn big_tagged_history(transactions: u64) -> History {
        let mut h = History::new();
        let mut installed: std::collections::HashMap<u32, Key> = std::collections::HashMap::new();
        for i in 0..transactions {
            let (inv, resp, tag) = (i * 10, i * 10 + 5, Some(i + 1));
            if i % 2 == 0 {
                let object = (i % 8) as u32;
                let client = (i % 4) as u32;
                h.push(write(i, client, i + 1, &[object], inv, resp, tag));
                installed.insert(object, k(i + 1, client));
            } else {
                let object = ((i + 4) % 8) as u32;
                let key = installed.get(&object).copied().unwrap_or_else(Key::initial);
                h.push(read(i, vec![(object, key)], inv, resp, tag));
            }
        }
        h
    }

    #[test]
    fn tag_checker_handles_100k_transactions() {
        // Lemma 20 decides histories far beyond the historical 10k cap:
        // O(log held) per commit, certified as the watermark passes.
        let h = big_tagged_history(100_000);
        let (lane, v) = fed(&h);
        assert_eq!(lane, StreamLane::TagOrder);
        match &v {
            Verdict::Serializable(witness) => assert_eq!(witness.len(), 100_000),
            other => panic!("expected a witness over 100k transactions: {other:?}"),
        }
    }

    /// The verdict does not depend on the order of the records: the stream
    /// reads certified commits back by id, through the history's id table,
    /// whatever the order.  The records are taken out, reversed and
    /// indexed anew by `History::from`.
    #[test]
    fn check_auto_does_not_depend_on_record_order() {
        let h = big_tagged_history(100_000);
        let in_order = check_auto(&h);
        assert!(in_order.is_serializable(), "{in_order:?}");
        let mut records = Vec::from(h);
        records.reverse();
        assert_eq!(check_auto(&History::from(records)), in_order);
    }

    #[test]
    fn tag_checker_convicts_large_histories_at_the_stale_read() {
        // A stale read in a history past the old 10k cap is convicted at
        // its commit: the read observes κ₀ for an object whose only write
        // completed strictly before it started.
        let mut h = big_tagged_history(20_000);
        h.push(write(20_000, 1, 99, &[50], 200_000, 200_005, Some(20_001)));
        h.push(read(
            20_001,
            vec![(50, Key::initial())], // stale: misses the completed write
            200_010,
            200_015,
            Some(20_002),
        ));
        let (lane, v) = fed(&h);
        assert_eq!(lane, StreamLane::Deferred, "the prefix before it is certified");
        match v {
            Verdict::NotSerializable(why) => {
                assert!(why.contains("(commit #20001)"), "expected the READ's commit: {why}")
            }
            v => panic!("expected a conviction, got {v:?}"),
        }
    }

    #[test]
    fn linearized_p2_sweep_matches_the_pairwise_rule() {
        // Exhaustive cross-check on small histories: the stream's P2 check
        // on arrival must agree with the direct O(n²) definition of P2 for
        // every pattern of (tag, kind, interval) collisions — the stream
        // stays on the tag order iff no pair violates it.
        let patterns: Vec<Vec<(u64, bool, u64, u64)>> = vec![
            // (tag, is_write, inv, resp)
            vec![(1, true, 0, 10), (2, false, 20, 30)],          // clean
            vec![(2, false, 0, 5), (2, true, 10, 20)],           // write≺read, read first: violation
            vec![(2, false, 0, 50), (2, true, 10, 20)],          // overlapping: fine
            vec![(1, false, 40, 50), (2, false, 0, 10)],         // read/read inversion: violation
            vec![(3, false, 0, 10), (3, false, 20, 30)],         // same-tag reads: never P2
            vec![(1, true, 20, 30), (2, true, 0, 10)],           // write/write inversion: violation
            vec![(1, true, 0, 30), (2, true, 10, 20)],           // nested intervals: fine
        ];
        for (case, pattern) in patterns.iter().enumerate() {
            let mut h = History::new();
            for (i, (tag, is_write, inv, resp)) in pattern.iter().enumerate() {
                let id = i as u64 + 1;
                if *is_write {
                    // Disjoint objects: P3/P4 stay silent, isolating P2.
                    h.push(write(id, i as u32 + 1, id, &[i as u32 + 10], *inv, *resp, Some(*tag)));
                } else {
                    // Reads touch never-written objects at κ₀: P4 silent.
                    h.push(read(
                        id,
                        vec![(i as u32 + 50, Key::initial())],
                        *inv,
                        *resp,
                        Some(*tag),
                    ));
                }
            }
            let completed: Vec<&TxRecord> = h.completed().collect();
            let tag_of = |r: &TxRecord| r.outcome.as_ref().unwrap().tag().unwrap();
            let tag_precedes = |a: &TxRecord, b: &TxRecord| {
                let (ta, tb) = (tag_of(a), tag_of(b));
                ta < tb || (ta == tb && a.kind() == TxKind::Write && b.kind() == TxKind::Read)
            };
            let pairwise_violation = completed.iter().any(|a| {
                completed
                    .iter()
                    .any(|b| a.tx_id != b.tx_id && a.precedes(b) && tag_precedes(b, a))
            });
            let (lane, verdict) = fed(&h);
            assert_eq!(
                lane != StreamLane::TagOrder,
                pairwise_violation,
                "case {case}: the stream's P2 and the pairwise rule disagree: {verdict:?}"
            );
        }
    }
}
