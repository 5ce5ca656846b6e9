//! Aggregated history metrics: latency percentiles, round and version
//! distributions, non-blocking fractions.  These are the numbers the
//! benchmark tables print.

use snow_core::History;
use std::collections::BTreeMap;

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: u64,
    /// Median (p50).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl LatencyStats {
    /// Computes statistics from raw samples.  Returns the default (all-zero)
    /// stats for an empty slice.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|s| *s as u128).sum();
        LatencyStats {
            count,
            mean: sum as f64 / count as f64,
            min: sorted[0],
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
            max: sorted[count - 1],
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metrics extracted from one history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryMetrics {
    /// Number of completed READ transactions.
    pub reads: usize,
    /// Number of completed WRITE transactions.
    pub writes: usize,
    /// Number of transactions that never completed.
    pub incomplete: usize,
    /// Latency statistics for READ transactions (simulation ticks or ns).
    pub read_latency: LatencyStats,
    /// Latency statistics for WRITE transactions.
    pub write_latency: LatencyStats,
    /// Histogram of rounds used per READ transaction.
    pub rounds_histogram: BTreeMap<u32, usize>,
    /// Histogram of the maximum versions carried by any response per READ.
    pub versions_histogram: BTreeMap<usize, usize>,
    /// Fraction of per-object reads answered non-blockingly (0.0–1.0).
    pub nonblocking_fraction: f64,
    /// Mean rounds per READ transaction.
    pub mean_rounds: f64,
    /// Mean of the maximum versions per READ transaction.
    pub mean_versions: f64,
    /// Total client-to-client messages across all transactions.
    pub c2c_messages: u64,
}

impl HistoryMetrics {
    /// Computes metrics from a history.
    pub fn from_history(history: &History) -> Self {
        let read_samples: Vec<u64> = history.reads().filter_map(|r| r.latency()).collect();
        let write_samples: Vec<u64> = history.writes().filter_map(|r| r.latency()).collect();
        let mut rounds_histogram = BTreeMap::new();
        let mut versions_histogram = BTreeMap::new();
        let mut total_object_reads = 0usize;
        let mut nonblocking_object_reads = 0usize;
        let mut rounds_sum = 0u64;
        let mut versions_sum = 0u64;
        for r in history.reads() {
            *rounds_histogram.entry(r.rounds).or_insert(0) += 1;
            *versions_histogram.entry(r.max_versions_per_read()).or_insert(0) += 1;
            rounds_sum += r.rounds as u64;
            versions_sum += r.max_versions_per_read() as u64;
            for or in &r.reads {
                total_object_reads += 1;
                if or.nonblocking {
                    nonblocking_object_reads += 1;
                }
            }
        }
        let reads = history.reads().count();
        let writes = history.writes().count();
        HistoryMetrics {
            reads,
            writes,
            incomplete: history.incomplete_count(),
            read_latency: LatencyStats::from_samples(&read_samples),
            write_latency: LatencyStats::from_samples(&write_samples),
            rounds_histogram,
            versions_histogram,
            nonblocking_fraction: if total_object_reads == 0 {
                1.0
            } else {
                nonblocking_object_reads as f64 / total_object_reads as f64
            },
            mean_rounds: if reads == 0 { 0.0 } else { rounds_sum as f64 / reads as f64 },
            mean_versions: if reads == 0 { 0.0 } else { versions_sum as f64 / reads as f64 },
            c2c_messages: history
                .completed()
                .map(|r| r.c2c_messages as u64)
                .sum(),
        }
    }

    /// The largest number of versions any READ response carried.
    pub fn max_versions(&self) -> usize {
        self.versions_histogram.keys().max().copied().unwrap_or(0)
    }

    /// The largest number of rounds any READ transaction used.
    pub fn max_rounds(&self) -> u32 {
        self.rounds_histogram.keys().max().copied().unwrap_or(0)
    }

    /// Throughput in transactions per tick over a run of `duration` ticks.
    pub fn throughput(&self, duration: u64) -> f64 {
        if duration == 0 {
            return 0.0;
        }
        (self.reads + self.writes) as f64 / duration as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::TxRecord;
    use snow_core::{ClientId, Key, ObjectId, ReadResult, ServerId, TxId, TxSpec, Value};
    use snow_core::{ObjectRead, ReadOutcome, TxOutcome, WriteOutcome};

    fn read_rec(id: u64, inv: u64, resp: u64, rounds: u32, versions: usize, nonblocking: bool) -> TxRecord {
        let mut rec = TxRecord::invoked(TxId(id), ClientId(0), TxSpec::read(vec![ObjectId(0)]), inv);
        rec.responded_at = Some(resp);
        rec.outcome = Some(TxOutcome::Read(ReadOutcome {
            reads: vec![ObjectRead {
                object: ObjectId(0),
                key: Key::initial(),
                value: Value(0),
            }],
            tag: None,
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

    fn write_rec(id: u64, inv: u64, resp: u64) -> TxRecord {
        let mut rec = TxRecord::invoked(
            TxId(id),
            ClientId(1),
            TxSpec::write(vec![(ObjectId(0), Value(1))]),
            inv,
        );
        rec.responded_at = Some(resp);
        rec.outcome = Some(TxOutcome::Write(WriteOutcome {
            key: Key::new(1, ClientId(1)),
            tag: None,
        }));
        rec
    }

    #[test]
    fn latency_stats_from_samples() {
        let stats = LatencyStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(stats.count, 10);
        assert_eq!(stats.min, 10);
        assert_eq!(stats.max, 100);
        assert_eq!(stats.p50, 50);
        assert_eq!(stats.p95, 100);
        assert!((stats.mean - 55.0).abs() < 1e-9);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1, 2, 3, 4];
        assert_eq!(percentile(&v, 25.0), 1);
        assert_eq!(percentile(&v, 50.0), 2);
        assert_eq!(percentile(&v, 100.0), 4);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn history_metrics_aggregate_rounds_versions_and_blocking() {
        let mut h = History::new();
        h.push(write_rec(1, 0, 10));
        h.push(read_rec(2, 10, 20, 1, 1, true));
        h.push(read_rec(3, 20, 40, 2, 1, true));
        h.push(read_rec(4, 40, 80, 1, 3, false));
        let m = HistoryMetrics::from_history(&h);
        assert_eq!(m.reads, 3);
        assert_eq!(m.writes, 1);
        assert_eq!(m.incomplete, 0);
        assert_eq!(m.rounds_histogram[&1], 2);
        assert_eq!(m.rounds_histogram[&2], 1);
        assert_eq!(m.versions_histogram[&1], 2);
        assert_eq!(m.versions_histogram[&3], 1);
        assert_eq!(m.max_versions(), 3);
        assert_eq!(m.max_rounds(), 2);
        assert!((m.nonblocking_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.mean_rounds - 4.0 / 3.0).abs() < 1e-9);
        assert!((m.mean_versions - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.read_latency.count, 3);
        assert_eq!(m.write_latency.count, 1);
        assert!(m.throughput(100) > 0.0);
        assert_eq!(m.throughput(0), 0.0);
    }

    #[test]
    fn empty_history_metrics_are_sane() {
        let m = HistoryMetrics::from_history(&History::new());
        assert_eq!(m.reads, 0);
        assert_eq!(m.nonblocking_fraction, 1.0);
        assert_eq!(m.max_rounds(), 0);
        assert_eq!(m.mean_rounds, 0.0);
    }
}
