//! Combined report: SNOW verdicts plus metrics, with a table-friendly
//! rendering.  This is what the Fig. 1(a)/1(b) harness prints per cell.

use crate::metrics::HistoryMetrics;
use crate::snow::SnowChecker;
use snow_core::{History, PropertyReport, SnowPropertySet};
use std::fmt;

/// The full verdict over one execution history.
#[derive(Debug, Clone)]
pub struct SnowReport {
    /// A label for the protocol / configuration that produced the history.
    pub label: String,
    /// Per-property verdicts (S, N, O, W order).
    pub properties: Vec<PropertyReport>,
    /// The observed property set.
    pub observed: SnowPropertySet,
    /// Aggregate metrics.
    pub metrics: HistoryMetrics,
}

impl SnowReport {
    /// Runs every check on `history` and assembles the report.
    pub fn evaluate(label: impl Into<String>, history: &History) -> Self {
        let checker = SnowChecker::new();
        let (properties, observed) = checker.check_all(history);
        SnowReport {
            label: label.into(),
            properties,
            observed,
            metrics: HistoryMetrics::from_history(history),
        }
    }

    /// True if every SNOW property held.
    pub fn is_snow(&self) -> bool {
        self.observed == SnowPropertySet::SNOW
    }

    /// True if S, N and W held (the guarantee set of Algorithms B and C).
    pub fn is_snw(&self) -> bool {
        self.observed.s && self.observed.n && self.observed.w
    }

    /// One-line summary: label, property letters, mean rounds/versions.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<45} {}  rounds(mean={:.2},max={})  versions(mean={:.2},max={})  nonblocking={:.0}%",
            self.label,
            self.observed,
            self.metrics.mean_rounds,
            self.metrics.max_rounds(),
            self.metrics.mean_versions,
            self.metrics.max_versions(),
            self.metrics.nonblocking_fraction * 100.0
        )
    }
}

impl fmt::Display for SnowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.label)?;
        writeln!(f, "observed properties: {}", self.observed)?;
        for p in &self.properties {
            writeln!(
                f,
                "  [{}] {} — {}",
                if p.holds { "ok " } else { "FAIL" },
                p.property,
                p.detail
            )?;
        }
        writeln!(
            f,
            "  reads={} writes={} incomplete={} read_latency(p50={} p99={}) rounds(max={}) versions(max={})",
            self.metrics.reads,
            self.metrics.writes,
            self.metrics.incomplete,
            self.metrics.read_latency.p50,
            self.metrics.read_latency.p99,
            self.metrics.max_rounds(),
            self.metrics.max_versions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{
        ClientId, Key, ObjectId, ObjectRead, ReadOutcome, ReadResult, ServerId, Tag, TxId,
        TxOutcome, TxRecord, TxSpec, Value, WriteOutcome,
    };

    fn sample_history() -> History {
        let mut h = History::new();
        let mut w = TxRecord::invoked(
            TxId(1),
            ClientId(1),
            TxSpec::write(vec![(ObjectId(0), Value(1))]),
            0,
        );
        w.responded_at = Some(10);
        w.outcome = Some(TxOutcome::Write(WriteOutcome {
            key: Key::new(1, ClientId(1)),
            tag: Some(Tag(2)),
        }));
        h.push(w);
        let mut r = TxRecord::invoked(TxId(2), ClientId(0), TxSpec::read(vec![ObjectId(0)]), 20);
        r.responded_at = Some(30);
        r.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: vec![ObjectRead {
                object: ObjectId(0),
                key: Key::new(1, ClientId(1)),
                value: Value(1),
            }],
            tag: Some(Tag(2)),
        }));
        r.rounds = 1;
        r.reads = vec![ReadResult {
            object: ObjectId(0),
            server: ServerId(0),
            versions_in_response: 1,
            nonblocking: true,
        }];
        h.push(r);
        h
    }

    #[test]
    fn report_evaluates_and_renders() {
        let report = SnowReport::evaluate("algorithm A / test", &sample_history());
        assert!(report.is_snow());
        assert!(report.is_snw());
        assert_eq!(report.properties.len(), 4);
        let line = report.summary_line();
        assert!(line.contains("SNOW"));
        let text = report.to_string();
        assert!(text.contains("algorithm A / test"));
        assert!(text.contains("[ok ]"));
    }

    #[test]
    fn empty_history_is_trivially_snow() {
        let report = SnowReport::evaluate("empty", &History::new());
        assert!(report.observed.n && report.observed.o && report.observed.w);
    }
}
