//! Strict-serializability checkers.
//!
//! * [`TagOrderChecker`] — the executable version of **Lemma 20**: if every
//!   transaction carries a tag, writes have distinct tags, the tag order is
//!   consistent with real time, and every READ returns exactly the versions
//!   written by the latest preceding (by tag) WRITE per object, then the
//!   history is strictly serializable.
//! * [`SearchChecker`] — a complete backtracking search for a serialization
//!   order: a total order of the completed transactions that (i) respects
//!   real-time precedence and (ii) replays correctly against the sequential
//!   `OT` semantics.  Incomplete WRITEs may be included or omitted (they may
//!   or may not have taken effect), mirroring Definition 7.1's treatment of
//!   incomplete transactions; incomplete READs are ignored.

use crate::ot::SequentialOt;
use crate::stream::StreamChecker;
use snow_core::{History, Tag, TxId, TxKind, TxOutcome, TxRecord};
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of a strict-serializability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history is strictly serializable; the witness is one valid
    /// serialization order.
    Serializable(Vec<TxId>),
    /// The history is **not** strictly serializable; the string explains the
    /// violation found.
    NotSerializable(String),
    /// The checker could not decide (history too large for the search
    /// checker, or missing tags for the tag-order checker).
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

/// Lemma 20-based checker for histories whose transactions carry tags.
#[derive(Debug, Clone, Default)]
pub struct TagOrderChecker;

impl TagOrderChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        TagOrderChecker
    }

    /// Checks `history` against the P1–P4 conditions of Lemma 20.
    pub fn check(&self, history: &History) -> Verdict {
        // Aborted transactions (fault-engine retirements) observed nothing
        // and installed nothing: they are constraint-free, need no place in
        // the serial order, and carry no tag — exclude them rather than
        // fall back to the search checker over them.
        let completed: Vec<&TxRecord> = history
            .completed()
            .filter(|r| !r.outcome.as_ref().is_some_and(|o| o.is_aborted()))
            .collect();
        // Every completed transaction must carry a tag.
        for rec in &completed {
            if rec.outcome.as_ref().and_then(|o| o.tag()).is_none() {
                return Verdict::Unknown(format!(
                    "transaction {} carries no tag; use the search checker",
                    rec.tx_id
                ));
            }
        }
        let tag_of = |rec: &TxRecord| rec.outcome.as_ref().unwrap().tag().unwrap();

        // P3: distinct writes have distinct tags.
        let mut write_tags: BTreeMap<Tag, TxId> = BTreeMap::new();
        for rec in completed.iter().filter(|r| r.kind() == TxKind::Write) {
            let tag = tag_of(rec);
            if let Some(prev) = write_tags.insert(tag, rec.tx_id) {
                return Verdict::NotSerializable(format!(
                    "P3 violated: writes {prev} and {} share tag {tag}",
                    rec.tx_id
                ));
            }
        }

        // The tag order `≺`: φ ≺ π iff tag(φ) < tag(π), or tags are equal
        // and φ is a WRITE while π is a READ.  Sorting by `(tag, WRITE <
        // READ)` lays the history out so that every ≺-successor of a
        // transaction sits in a strictly later group, which is what lets
        // P2 and P4 run as single sweeps (historically both were O(n²)
        // pair/rescan loops, which is why `check_auto` used to cap this
        // engine at 10k transactions).
        let rank = |r: &TxRecord| -> (Tag, u8) {
            (tag_of(r), match r.kind() {
                TxKind::Write => 0,
                TxKind::Read => 1,
            })
        };
        let mut order: Vec<&TxRecord> = completed.clone();
        order.sort_by_key(|r| (rank(r), r.invoked_at, r.tx_id));

        // P2: real-time order must not contradict `≺`.  A violation is a
        // pair `b ≺ a` (a in a strictly later `(tag, kind)` group) with
        // RESP(a) < INV(b).  Sweeping the groups from the back while
        // carrying the earliest RESP seen in later groups finds the pair —
        // if any exists — in one O(n) pass.
        let mut later_min_resp: Option<&TxRecord> = None;
        let mut group_end = order.len();
        while group_end > 0 {
            let group_rank = rank(order[group_end - 1]);
            let group_start = order[..group_end]
                .iter()
                .rposition(|r| rank(r) != group_rank)
                .map(|p| p + 1)
                .unwrap_or(0);
            for b in &order[group_start..group_end] {
                if let Some(a) = later_min_resp {
                    if a.precedes(b) {
                        return Verdict::NotSerializable(format!(
                            "P2 violated: {} completes before {} starts, yet {} ≺ {} in the \
                             tag order",
                            a.tx_id, b.tx_id, b.tx_id, a.tx_id
                        ));
                    }
                }
            }
            for a in &order[group_start..group_end] {
                if later_min_resp
                    .map(|cur| a.responded_at < cur.responded_at)
                    .unwrap_or(true)
                {
                    later_min_resp = Some(a);
                }
            }
            group_end = group_start;
        }

        // P4: a READ returns, per object, the version of the latest WRITE
        // (by tag) that precedes it and touches the object, or κ₀.  One
        // forward sweep in `≺` order — a sequential replay — maintains
        // exactly that "latest preceding write" per object.
        let mut installed = SequentialOt::new();
        for rec in &order {
            if let Err(object) = installed.apply(rec) {
                let returned = match &rec.outcome {
                    Some(TxOutcome::Read(r)) => r.reads.iter().find(|or| or.object == object),
                    _ => None,
                }
                .expect("a replay fails only on a key a READ returned");
                return Verdict::NotSerializable(format!(
                    "P4 violated: READ {} (tag {}) returned version {} for {} but the latest \
                     preceding write installed {}",
                    rec.tx_id,
                    tag_of(rec),
                    returned.key,
                    object,
                    installed.key_of(object)
                ));
            }
        }

        // The sweep order (tag, writes before reads, invocation) is itself
        // a witness serialization.
        Verdict::Serializable(order.into_iter().map(|r| r.tx_id).collect())
    }
}

/// Complete backtracking checker (no tags needed).
#[derive(Debug, Clone)]
pub struct SearchChecker {
    /// Maximum number of transactions the search will attempt (the search is
    /// exponential in the worst case).
    pub max_transactions: usize,
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

    /// Creates a checker with an explicit transaction cap.
    pub fn with_max_transactions(max_transactions: usize) -> Self {
        SearchChecker { max_transactions }
    }

    /// Checks `history` by searching for a valid serialization order.
    pub fn check(&self, history: &History) -> Verdict {
        // Completed transactions must all be placed; incomplete WRITEs are
        // optional (they may or may not have taken effect); incomplete READs
        // are ignored.
        let mandatory: Vec<&TxRecord> = history.completed().collect();
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

/// Checks `history` for strict serializability with the cheapest engine
/// that can decide it:
///
/// 1. [`TagOrderChecker`] when every completed transaction carries a tag —
///    at any history size, since its P2/P4 conditions are single sweeps
///    over the tag-sorted history.  Lemma 20 is a *sufficient* condition,
///    so only its acceptance is authoritative.
/// 2. [`StreamChecker::check`] otherwise, and to confirm a tag-order
///    conviction (a history may be serializable in an order its tags
///    contradict); the tag checker's more specific P2/P3/P4 message is
///    kept when both convict.  The stream is the crate's one semantic
///    engine: it takes version orders from tags where they settle them,
///    re-solves only its live window where they do not, and falls back to
///    [`SearchChecker`] itself on a small history it cannot decide.
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
/// for rec in &mut history.records {
///     match rec.outcome.as_mut() {
///         Some(TxOutcome::Write(w)) => w.tag = None,
///         Some(TxOutcome::Read(r)) => r.tag = None,
///         _ => {}
///     }
/// }
/// assert!(check_auto(&history).is_serializable());
/// ```
pub fn check_auto(history: &History) -> Verdict {
    // Aborted transactions are tag-free by construction but impose no
    // constraints, so they must not disqualify the tag-order engine.
    let all_tagged = history
        .completed()
        .all(|r| r.outcome.as_ref().is_some_and(|o| o.is_aborted() || o.tag().is_some()));
    let mut tag_conviction = None;
    if all_tagged && history.completed().next().is_some() {
        match TagOrderChecker::new().check(history) {
            verdict @ Verdict::Serializable(_) => return verdict,
            Verdict::NotSerializable(why) => tag_conviction = Some(why),
            Verdict::Unknown(_) => {}
        }
    }
    match (StreamChecker::check(history), tag_conviction) {
        (Verdict::NotSerializable(_), Some(why)) => Verdict::NotSerializable(why),
        (verdict, _) => verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, TxOutcome, TxSpec, Value, WriteOutcome,
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

    #[test]
    fn tag_checker_accepts_a_clean_history() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        h.push(read(2, vec![(0, k(1, 1)), (1, k(1, 1))], 20, 30, Some(2)));
        let v = TagOrderChecker::new().check(&h);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn tag_checker_rejects_stale_reads() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        // A read at tag 2 returning κ0 for object 1 is stale (P4).
        h.push(read(2, vec![(0, k(1, 1)), (1, Key::initial())], 20, 30, Some(2)));
        let v = TagOrderChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn tag_checker_rejects_real_time_inversions() {
        let mut h = History::new();
        // Read at tag 1 completes strictly after a write that carries tag 2
        // completed... fine.  But a read that *precedes* the write in real
        // time while carrying a larger tag is fine too.  The violation is a
        // read that completes before a write begins yet the write's tag is
        // smaller (write ≺ read impossible?  No: read.tag > write.tag means
        // write ≺ read, which combined with read-before-write real time is a
        // P2 violation).
        h.push(read(1, vec![(0, k(1, 1))], 0, 5, Some(2)));
        h.push(write(2, 1, 1, &[0], 10, 20, Some(2)));
        let v = TagOrderChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn tag_checker_rejects_duplicate_write_tags() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, Some(2)));
        h.push(write(2, 2, 1, &[1], 0, 10, Some(2)));
        let v = TagOrderChecker::new().check(&h);
        assert!(v.is_violation(), "{v:?}");
    }

    #[test]
    fn tag_checker_returns_unknown_without_tags() {
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, None));
        assert!(matches!(TagOrderChecker::new().check(&h), Verdict::Unknown(_)));
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
        assert!(check_auto(&tagged).is_serializable());
        let mut untagged = History::new();
        untagged.push(write(1, 1, 1, &[0], 0, 10, None));
        assert!(check_auto(&untagged).is_serializable());
    }

    #[test]
    fn check_auto_overrides_tag_convictions_that_are_semantically_serializable() {
        // W1 wholly precedes W2 in real time but carries the larger tag —
        // a P2 violation under Lemma 20, yet the history (two writes on
        // disjoint objects, no reads) is trivially serializable.  The
        // semantic engines must win, and the verdict must not depend on
        // whether the history is above or below the tag-order size cap.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0], 0, 10, Some(2)));
        h.push(write(2, 2, 1, &[1], 20, 30, Some(1)));
        assert!(TagOrderChecker::new().check(&h).is_violation());
        let v = check_auto(&h);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn check_auto_keeps_the_tag_diagnostic_when_both_engines_convict() {
        // A stale read: tag order and semantics agree it is a violation,
        // and the more specific P4 message is the one reported.
        let mut h = History::new();
        h.push(write(1, 1, 1, &[0, 1], 0, 10, Some(2)));
        h.push(read(2, vec![(0, k(1, 1)), (1, Key::initial())], 20, 30, Some(2)));
        match check_auto(&h) {
            Verdict::NotSerializable(why) => {
                assert!(why.starts_with("P4"), "expected the Lemma 20 diagnostic: {why}")
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
        // ROADMAP follow-up (b): with the P2/P4 sweeps linearized, the
        // Lemma 20 engine — and therefore `check_auto`'s tagged path — now
        // decides histories far beyond the historical 10k cap.
        let h = big_tagged_history(100_000);
        let v = TagOrderChecker::new().check(&h);
        match &v {
            Verdict::Serializable(witness) => assert_eq!(witness.len(), 100_000),
            other => panic!("expected a witness over 100k transactions: {other:?}"),
        }
        assert!(check_auto(&h).is_serializable(), "check_auto must accept via tag order");
    }

    #[test]
    fn tag_checker_convicts_large_histories_with_the_p4_diagnostic() {
        // A stale read in a history past the old 10k cap still gets the
        // precise Lemma 20 diagnostic (confirmed semantically by the stream
        // engine: the read observes κ₀ for an object whose only write
        // completed strictly before it started).
        let mut h = big_tagged_history(20_000);
        h.push(write(20_000, 1, 99, &[50], 200_000, 200_005, Some(20_001)));
        h.push(read(
            20_001,
            vec![(50, Key::initial())], // stale: misses the completed write
            200_010,
            200_015,
            Some(20_002),
        ));
        assert!(TagOrderChecker::new().check(&h).is_violation());
        match check_auto(&h) {
            Verdict::NotSerializable(why) => {
                assert!(why.starts_with("P4"), "expected the Lemma 20 diagnostic: {why}")
            }
            v => panic!("expected a conviction, got {v:?}"),
        }
    }

    #[test]
    fn linearized_p2_sweep_matches_the_pairwise_rule() {
        // Exhaustive cross-check on small histories: the group sweep must
        // agree with the direct O(n²) definition of P2 for every pattern of
        // (tag, kind, interval) collisions.
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
            let verdict = TagOrderChecker::new().check(&h);
            assert_eq!(
                verdict.is_violation(),
                pairwise_violation,
                "case {case}: sweep and pairwise P2 disagree: {verdict:?}"
            );
        }
    }
}
