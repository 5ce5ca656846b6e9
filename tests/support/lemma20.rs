//! Lemma 20 as batch sweeps over a finished history: the reference the
//! tests hold `check_auto` and `TagOrderStream` to.  The library checks
//! Lemma 20 once, incrementally (`snow_checker::TagOrderStream`); this is
//! an independent second implementation of the same conditions, so a
//! differential between the two means something.
//!
//! If every transaction carries a tag, writes have distinct tags, the tag
//! order is consistent with real time, and every READ returns exactly the
//! versions written by the latest preceding (by tag) WRITE per object,
//! then the history is strictly serializable.

use snow::checker::{SequentialOt, Verdict};
use snow::core::{History, Tag, TxId, TxKind, TxOutcome, TxRecord};
use std::collections::BTreeMap;

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
