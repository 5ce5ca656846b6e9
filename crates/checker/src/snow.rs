//! Verifiers for the N, O and W properties (§2.1) over a [`History`].
//!
//! The per-read instrumentation (rounds, versions per response, non-blocking
//! flag) is derived by `snow-sim` from its causal trace, so these checks do
//! not rely on the protocol's own claims.

use crate::strict::{check_auto, Verdict};
use snow_core::{History, PropertyReport, SnowProperty, SnowPropertySet, TxKind, TxRecord};

/// Checks all four SNOW properties of a history.
#[derive(Debug, Clone, Default)]
pub struct SnowChecker;

impl SnowChecker {
    /// Creates the checker.
    pub fn new() -> Self {
        SnowChecker
    }

    /// Checks the S property (strict serializability) with the engine
    /// [`check_auto`] picks for the history's shape.
    pub fn check_strict_serializability(&self, history: &History) -> PropertyReport {
        match check_auto(history) {
            Verdict::Serializable(order) => PropertyReport::pass(
                SnowProperty::StrictSerializability,
                format!("serialization witness over {} transactions", order.len()),
            ),
            Verdict::NotSerializable(why) => {
                PropertyReport::fail(SnowProperty::StrictSerializability, why)
            }
            Verdict::Unknown(why) => PropertyReport::fail(
                SnowProperty::StrictSerializability,
                format!("could not verify: {why}"),
            ),
        }
    }

    /// Checks the N property: every read of every READ transaction was
    /// answered by the server without waiting for other input.
    pub fn check_non_blocking(&self, history: &History) -> PropertyReport {
        let mut blocked = Vec::new();
        for rec in history.reads() {
            for r in &rec.reads {
                if !r.nonblocking {
                    blocked.push(format!("{} at {}", rec.tx_id, r.server));
                }
            }
        }
        if blocked.is_empty() {
            PropertyReport::pass(
                SnowProperty::NonBlocking,
                format!("all {} READ transactions answered non-blockingly", history.reads().count()),
            )
        } else {
            PropertyReport::fail(
                SnowProperty::NonBlocking,
                format!("blocked reads: {}", blocked.join(", ")),
            )
        }
    }

    /// Checks the O property: every READ used exactly one round and every
    /// response carried exactly one version.
    pub fn check_one_response(&self, history: &History) -> PropertyReport {
        let rounds = self.check_one_round(history);
        let versions = self.check_one_version(history);
        if rounds.holds && versions.holds {
            PropertyReport::pass(
                SnowProperty::OneResponse,
                "one round and one version per read".to_string(),
            )
        } else {
            PropertyReport::fail(
                SnowProperty::OneResponse,
                format!("{} / {}", rounds.detail, versions.detail),
            )
        }
    }

    /// Checks the one-round half of O (the property Algorithm C keeps).
    pub fn check_one_round(&self, history: &History) -> PropertyReport {
        let offenders: Vec<String> = history
            .reads()
            .filter(|r| r.rounds > 1)
            .map(|r| format!("{} used {} rounds", r.tx_id, r.rounds))
            .collect();
        if offenders.is_empty() {
            PropertyReport::pass(SnowProperty::OneResponse, "one round per READ".to_string())
        } else {
            PropertyReport::fail(SnowProperty::OneResponse, offenders.join(", "))
        }
    }

    /// Checks the one-version half of O (the property Algorithm B keeps).
    pub fn check_one_version(&self, history: &History) -> PropertyReport {
        let offenders: Vec<String> = history
            .reads()
            .filter(|r| r.max_versions_per_read() > 1)
            .map(|r| format!("{} received {} versions", r.tx_id, r.max_versions_per_read()))
            .collect();
        if offenders.is_empty() {
            PropertyReport::pass(SnowProperty::OneResponse, "one version per response".to_string())
        } else {
            PropertyReport::fail(SnowProperty::OneResponse, offenders.join(", "))
        }
    }

    /// Checks the W property: WRITE transactions exist alongside READs and
    /// every invoked WRITE completed.
    pub fn check_writes_complete(&self, history: &History) -> PropertyReport {
        let incomplete: Vec<String> = history
            .records
            .iter()
            .filter(|r| r.kind() == TxKind::Write && !r.is_complete())
            .map(|r| r.tx_id.to_string())
            .collect();
        if !incomplete.is_empty() {
            return PropertyReport::fail(
                SnowProperty::ConflictingWrites,
                format!("incomplete WRITE transactions: {}", incomplete.join(", ")),
            );
        }
        let writes = history.writes().count();
        let overlapping = self.concurrent_read_write_pairs(history);
        PropertyReport::pass(
            SnowProperty::ConflictingWrites,
            format!("{writes} WRITEs completed; {overlapping} READ/WRITE overlaps observed"),
        )
    }

    /// Counts READ/WRITE pairs that overlap in time and touch a common
    /// object — the "conflicting writes" the W property is about.
    ///
    /// A sweep over both kinds in invocation order: each READ is compared
    /// only with the WRITEs whose interval meets its own, so the cost is
    /// O(n log n + overlapping pairs), not reads × writes.
    pub fn concurrent_read_write_pairs(&self, history: &History) -> usize {
        let end = |t: &TxRecord| t.responded_at.unwrap_or(u64::MAX);
        let mut reads: Vec<&TxRecord> = history.reads().collect();
        reads.sort_by_key(|r| r.invoked_at);
        let mut writes: Vec<&TxRecord> = history.writes().collect();
        writes.sort_by_key(|w| w.invoked_at);
        // WRITEs invoked by the current READ's invocation that had not
        // responded before it; `writes[started..]` are invoked after it.
        let mut active: Vec<&TxRecord> = Vec::new();
        let mut started = 0;
        let mut count = 0;
        for r in reads {
            while started < writes.len() && writes[started].invoked_at <= r.invoked_at {
                active.push(writes[started]);
                started += 1;
            }
            // A WRITE that responded before this READ was invoked also
            // precedes every later READ.
            active.retain(|w| end(w) >= r.invoked_at);
            let during = writes[started..].iter().take_while(|w| w.invoked_at <= end(r));
            count += active
                .iter()
                .chain(during)
                .filter(|w| overlaps(r, w) && conflicts(r, w))
                .count();
        }
        count
    }

    /// Runs every check and returns the reports plus the observed property
    /// set.
    pub fn check_all(&self, history: &History) -> (Vec<PropertyReport>, SnowPropertySet) {
        let s = self.check_strict_serializability(history);
        let n = self.check_non_blocking(history);
        let o = self.check_one_response(history);
        let w = self.check_writes_complete(history);
        let set = SnowPropertySet {
            s: s.holds,
            n: n.holds,
            o: o.holds,
            w: w.holds,
        };
        (vec![s, n, o, w], set)
    }
}

/// Neither transaction responded before the other was invoked.
fn overlaps(a: &TxRecord, b: &TxRecord) -> bool {
    !a.precedes(b) && !b.precedes(a)
}

/// The two transactions name a common object.
fn conflicts(a: &TxRecord, b: &TxRecord) -> bool {
    a.spec.objects_iter().any(|o| b.spec.objects_iter().any(|p| p == o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, ReadResult, ServerId, Tag, TxId,
        TxOutcome, TxRecord, TxSpec, Value, WriteOutcome,
    };

    fn snow_read(id: u64, inv: u64, resp: u64, nonblocking: bool, versions: usize, rounds: u32) -> TxRecord {
        let mut rec = TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), inv);
        rec.responded_at = Some(resp);
        rec.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: vec![ObjectRead {
                object: ObjectId(0),
                key: Key::new(1, ClientId(1)),
                value: Value(1),
            }],
            tag: Some(Tag(2)),
        }));
        rec.rounds = rounds;
        rec.reads = vec![ReadResult {
            object: ObjectId(0),
            server: ServerId(0),
            versions_in_response: versions,
            nonblocking,
        }];
        rec
    }

    fn snow_write(id: u64, inv: u64, resp: Option<u64>) -> TxRecord {
        let mut rec = TxRecord::invoked(
            TxId(id),
            ClientId(1),
            TxSpec::write(vec![(ObjectId(0), Value(1))]),
            inv,
        );
        rec.responded_at = resp;
        if resp.is_some() {
            rec.outcome = Some(TxOutcome::Write(WriteOutcome {
                key: Key::new(1, ClientId(1)),
                tag: Some(Tag(2)),
            }));
        }
        rec
    }

    #[test]
    fn all_properties_pass_on_an_ideal_history() {
        let mut h = History::new();
        h.push(snow_write(1, 0, Some(10)));
        h.push(snow_read(2, 20, 30, true, 1, 1));
        let (reports, set) = SnowChecker::new().check_all(&h);
        assert_eq!(reports.len(), 4);
        assert_eq!(set, SnowPropertySet::SNOW, "{reports:?}");
    }

    #[test]
    fn blocking_reads_fail_n() {
        let mut h = History::new();
        h.push(snow_write(1, 0, Some(10)));
        h.push(snow_read(2, 20, 30, false, 1, 1));
        let checker = SnowChecker::new();
        assert!(!checker.check_non_blocking(&h).holds);
        let (_, set) = checker.check_all(&h);
        assert!(!set.n && set.s && set.o && set.w);
    }

    #[test]
    fn multi_round_or_multi_version_reads_fail_o() {
        let checker = SnowChecker::new();
        let mut two_rounds = History::new();
        two_rounds.push(snow_write(1, 0, Some(10)));
        two_rounds.push(snow_read(2, 20, 30, true, 1, 2));
        assert!(!checker.check_one_round(&two_rounds).holds);
        assert!(checker.check_one_version(&two_rounds).holds);
        assert!(!checker.check_one_response(&two_rounds).holds);

        let mut multi_version = History::new();
        multi_version.push(snow_write(1, 0, Some(10)));
        multi_version.push(snow_read(2, 20, 30, true, 3, 1));
        assert!(checker.check_one_round(&multi_version).holds);
        assert!(!checker.check_one_version(&multi_version).holds);
        assert!(!checker.check_one_response(&multi_version).holds);
    }

    #[test]
    fn incomplete_writes_fail_w() {
        let mut h = History::new();
        h.push(snow_write(1, 0, None));
        h.push(snow_read(2, 20, 30, true, 1, 1));
        let checker = SnowChecker::new();
        assert!(!checker.check_writes_complete(&h).holds);
    }

    /// The definition: every READ against every WRITE.
    fn pairwise_oracle(history: &History) -> usize {
        let pairs = history.reads().flat_map(|r| history.writes().map(move |w| (r, w)));
        pairs.filter(|(r, w)| overlaps(r, w) && conflicts(r, w)).count()
    }

    #[test]
    fn sweep_counts_what_the_pairwise_definition_counts() {
        let mut state = 7u64;
        let mut below = move |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut overlapping = 0;
        for _ in 0..300 {
            let (n, n_objects) = (1 + below(200), 4 + below(8));
            let (span, dur) = (1 + below(400), 1 + below(60));
            let mut h = History::new();
            for id in 0..n {
                let inv = below(span);
                let mut objects: Vec<ObjectId> = Vec::new();
                while objects.len() < 1 + below(4) as usize {
                    let o = ObjectId(below(n_objects) as u32);
                    if !objects.contains(&o) {
                        objects.push(o);
                    }
                }
                let mut rec = if below(2) == 0 {
                    snow_read(id, inv, 0, true, 1, 1)
                } else {
                    snow_write(id, inv, Some(0))
                };
                rec.spec = match rec.kind() {
                    TxKind::Read => TxSpec::read(objects),
                    TxKind::Write => {
                        TxSpec::write(objects.into_iter().map(|o| (o, Value(1))).collect())
                    }
                };
                // Zero-length intervals, shared endpoints and a few
                // transactions that never respond.
                rec.responded_at = (below(20) != 0).then(|| inv + below(dur));
                h.push(rec);
            }
            let expected = pairwise_oracle(&h);
            assert_eq!(SnowChecker::new().concurrent_read_write_pairs(&h), expected);
            overlapping += expected;
        }
        assert!(overlapping > 10_000, "the histories must overlap: {overlapping} pairs");
    }

    #[test]
    fn concurrency_counting_requires_overlap_and_conflict() {
        let checker = SnowChecker::new();
        let mut h = History::new();
        // Write and read overlap in time and share object 0.
        h.push(snow_write(1, 0, Some(100)));
        h.push(snow_read(2, 20, 30, true, 1, 1));
        assert_eq!(checker.concurrent_read_write_pairs(&h), 1);
        // Disjoint in time.
        let mut h2 = History::new();
        h2.push(snow_write(1, 0, Some(10)));
        h2.push(snow_read(2, 20, 30, true, 1, 1));
        assert_eq!(checker.concurrent_read_write_pairs(&h2), 0);
    }
}
