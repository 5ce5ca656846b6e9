//! [`GraphChecker`]: the name of the former whole-history precedence-graph
//! engine, kept as a forward to [`StreamChecker::check`] for callers that
//! still use it.  Its tests are that engine's unit tests on small
//! hand-built histories, run on [`StreamChecker::check`] with the stream
//! module's fixtures.
//!
//! The precedence-graph construction and the constraint-splitting search
//! live in the crate-private `solve` module; the stream engine runs them
//! over its live window and its sealed segments, never over a whole
//! history.

use crate::stream::StreamChecker;
use crate::strict::Verdict;
use snow_core::History;

/// A forward to [`StreamChecker::check`], with no settings of its own.
/// It holds the name the whole-history graph engine had, so that code
/// written against that engine still builds; new code calls
/// [`crate::check_auto`] or [`StreamChecker`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphChecker;

impl GraphChecker {
    /// The forward.
    pub fn new() -> Self {
        GraphChecker
    }

    /// [`StreamChecker::check`] on `history`.
    pub fn check(&self, history: &History) -> Verdict {
        StreamChecker::check(history)
    }
}

#[cfg(test)]
mod tests {
    use crate::stream::tests::{assert_valid_witness, k, read, tagged, write};
    use crate::stream::StreamChecker;
    use crate::strict::Verdict;
    use snow_core::{History, Key, TxId, TxOutcome};

    #[test]
    fn aborted_write_takes_no_place_in_the_version_order() {
        // Regression: an aborted WRITE (fault-engine retirement) installed
        // nothing, so a later read of the initial version must not be
        // forced before it.  With spec-based write classification the
        // aborted write joined `writes_of`, giving read→abort (version
        // order) plus abort→read (real time) — a spurious cycle.
        let mut aborted = write(1, &[0], (1, 1), 0, 5);
        aborted.outcome = Some(TxOutcome::Aborted);
        let stale = read(2, &[(0, Key::initial())], 10, 15);
        let mut h = History::new();
        h.push(aborted);
        h.push(stale);
        let verdict = StreamChecker::check(&h);
        assert_valid_witness(&h, &verdict);
    }

    #[test]
    fn empty_history_is_serializable() {
        assert_eq!(StreamChecker::check(&History::new()), Verdict::Serializable(vec![]));
    }

    #[test]
    fn accepts_a_clean_history_with_witness() {
        let mut h = History::new();
        h.push(write(1, &[0, 1], (1, 1), 0, 10));
        h.push(read(2, &[(0, k(1, 1)), (1, k(1, 1))], 20, 30));
        let v = StreamChecker::check(&h);
        assert_valid_witness(&h, &v);
    }

    #[test]
    fn accepts_reads_of_kappa_zero_without_writes() {
        let mut h = History::new();
        h.push(read(1, &[(7, Key::initial())], 0, 10));
        assert!(StreamChecker::check(&h).is_serializable());
    }

    #[test]
    fn rejects_torn_reads_of_a_completed_write() {
        let mut h = History::new();
        h.push(write(1, &[0, 1], (1, 1), 0, 10));
        h.push(read(2, &[(0, k(1, 1)), (1, Key::initial())], 20, 30));
        assert!(StreamChecker::check(&h).is_violation());
    }

    #[test]
    fn rejects_reads_of_versions_nobody_wrote() {
        let mut h = History::new();
        h.push(write(1, &[0], (1, 1), 0, 10));
        h.push(read(2, &[(0, k(9, 9))], 20, 30));
        assert!(StreamChecker::check(&h).is_violation());
    }

    #[test]
    fn rejects_the_fig5_shape() {
        let mut h = History::new();
        h.push(write(1, &[1], (1, 1), 0, 10)); // w1
        h.push(write(2, &[1], (2, 1), 20, 30)); // w2
        h.push(write(3, &[0], (1, 2), 40, 50)); // w3 (after w2)
        h.push(read(4, &[(0, k(1, 2)), (1, k(1, 1))], 5, 60));
        assert!(StreamChecker::check(&h).is_violation());
    }

    #[test]
    fn rejects_inverted_consecutive_reads() {
        let mut h = History::new();
        h.push(write(1, &[0, 1], (1, 2), 0, 10));
        h.push(read(2, &[(0, k(1, 2)), (1, k(1, 2))], 20, 30));
        h.push(read(3, &[(0, Key::initial()), (1, Key::initial())], 40, 50));
        assert!(StreamChecker::check(&h).is_violation());
    }

    #[test]
    fn concurrent_reads_may_choose_either_side() {
        let mut h = History::new();
        h.push(write(1, &[0, 1], (1, 1), 0, 100));
        h.push(read(2, &[(0, Key::initial()), (1, Key::initial())], 10, 20));
        assert!(StreamChecker::check(&h).is_serializable());
        let mut h2 = History::new();
        h2.push(write(1, &[0, 1], (1, 1), 0, 100));
        h2.push(read(2, &[(0, k(1, 1)), (1, k(1, 1))], 10, 20));
        assert!(StreamChecker::check(&h2).is_serializable());
    }

    #[test]
    fn incomplete_writes_are_included_iff_observed() {
        let mut pending = write(1, &[0], (1, 1), 0, 0);
        pending.responded_at = None;
        let mut h = History::new();
        h.push(pending.clone());
        h.push(read(2, &[(0, k(1, 1))], 10, 20));
        let v = StreamChecker::check(&h);
        let Verdict::Serializable(order) = &v else { panic!("{v:?}") };
        assert!(order.contains(&TxId(1)), "observed pending write is placed");

        let mut h2 = History::new();
        h2.push(pending);
        h2.push(read(2, &[(0, Key::initial())], 10, 20));
        let v2 = StreamChecker::check(&h2);
        let Verdict::Serializable(order2) = &v2 else { panic!("{v2:?}") };
        assert!(!order2.contains(&TxId(1)), "unobserved pending write is dropped");
    }

    #[test]
    fn splitting_rescues_a_bad_first_candidate() {
        // Writes A and B on object 0 are fully concurrent; q (early) reads
        // B, r (later) reads A.  The (inv, tx)-ordered candidate A≺B is
        // cyclic (q before r in real time), the flipped order B≺A is not.
        let mut h = History::new();
        h.push(write(1, &[0], (1, 1), 0, 100)); // A
        h.push(write(2, &[0], (1, 2), 5, 100)); // B
        h.push(read(3, &[(0, k(1, 2))], 10, 20)); // q reads B
        h.push(read(4, &[(0, k(1, 1))], 30, 40)); // r reads A
        let v = StreamChecker::check(&h);
        assert_valid_witness(&h, &v);
    }

    #[test]
    fn splitting_convicts_a_torn_concurrent_read() {
        // A and B both write {0, 1}; one read returns A's version for one
        // object and B's for the other — torn under every version order.
        let mut h = History::new();
        h.push(write(1, &[0, 1], (1, 1), 0, 100)); // A
        h.push(write(2, &[0, 1], (1, 2), 0, 100)); // B
        h.push(read(3, &[(0, k(1, 2)), (1, k(1, 1))], 10, 200));
        assert!(StreamChecker::check(&h).is_violation());
    }

    #[test]
    fn tagged_candidates_skip_the_pairwise_analysis() {
        let mut h = History::new();
        h.push(tagged(write(1, &[0], (1, 1), 0, 100), 2));
        h.push(tagged(write(2, &[0], (1, 2), 0, 100), 3));
        h.push(read(3, &[(0, k(1, 2))], 150, 160));
        let v = StreamChecker::check(&h);
        assert_valid_witness(&h, &v);
    }

    #[test]
    fn scales_past_the_search_cap() {
        let mut h = History::new();
        let mut id = 0u64;
        for i in 0..2_000u64 {
            id += 1;
            h.push(write(id, &[(i % 8) as u32], (i + 1, 1), i * 10, i * 10 + 5));
            id += 1;
            h.push(read(id, &[((i % 8) as u32, k(i + 1, 1))], i * 10 + 6, i * 10 + 9));
        }
        let v = StreamChecker::check(&h);
        assert!(v.is_serializable(), "{v:?}");
    }

    #[test]
    fn tag_order_contradicting_real_time_is_not_a_semantic_conviction() {
        // W2 wholly precedes W3 in real time, but W3 carries the smaller
        // tag, so the tag-sorted candidate for object 1 is W3 ≺ W2 — a
        // forced-constraint contradiction, not a free pair.  The checker
        // must re-extend the candidate under the necessary constraints
        // (keeping the history serializable) rather than convict because
        // no free pair can be flipped.
        let mut h = History::new();
        h.push(tagged(write(1, &[0, 1], (1, 1), 27, 33), 3)); // W2
        h.push(tagged(write(2, &[1], (1, 2), 43, 51), 1)); // W3
        h.push(read(3, &[(0, k(1, 1))], 60, 70));
        let v = StreamChecker::check(&h);
        assert_valid_witness(&h, &v);
    }

    #[test]
    fn splitting_preserves_cross_group_real_time_order() {
        // Mixed tagged/untagged writes on one object: W1 (tagged) wholly
        // precedes the concurrent untagged pair W2/W3.  The reads force the
        // splitting fallback to reorder W2/W3; the re-extension must keep
        // W1 first (its tag-0-sorts-last tie key must not matter), or a
        // serializable history gets falsely convicted.
        let mut h = History::new();
        h.push(tagged(write(1, &[0], (1, 3), 0, 10), 5)); // W1, tagged
        h.push(write(2, &[0], (1, 1), 20, 100)); // W2
        h.push(write(3, &[0], (1, 2), 25, 100)); // W3
        h.push(read(4, &[(0, k(1, 2))], 30, 40)); // q reads W3
        h.push(read(5, &[(0, k(1, 1))], 50, 60)); // r reads W2
        let v = StreamChecker::check(&h);
        assert_valid_witness(&h, &v);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // Two fully concurrent writes on {0, 1} and a read returning one's
        // version of 0 and the other's of 1: only splitting can refute it.
        // A live `finish` does not search, so a budget of zero must
        // surface Unknown instead of a wrong verdict; behind 24 unrelated
        // writes the history is above the search cap too, so `check`
        // could not settle it by search either.
        let mut h = History::new();
        for i in 0..24u64 {
            h.push(write(10 + i, &[2], (i + 1, 3), i * 10, i * 10 + 5));
        }
        h.push(write(1, &[0, 1], (1, 1), 300, 400));
        h.push(write(2, &[0, 1], (1, 2), 300, 400));
        h.push(read(3, &[(0, k(1, 2)), (1, k(1, 1))], 310, 500));
        let mut checker = StreamChecker::with_split_budget(0);
        checker.feed_history(&h);
        let v = checker.finish();
        assert!(matches!(v, Verdict::Unknown(_)), "{v:?}");
        // With a budget the same history is convicted.
        assert!(StreamChecker::check(&h).is_violation());
    }
}
