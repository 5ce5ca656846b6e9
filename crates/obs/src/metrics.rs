//! Metrics derived from a recorded event stream.
//!
//! The simulators do no live aggregation: [`fold_events`] derives counters,
//! gauges and log2 histograms from the events a run recorded, after the run,
//! into a deterministically ordered [`MetricsSnapshot`].

use std::collections::BTreeMap;

use crate::event::{ObsEvent, ShardEvent};

/// A power-of-two-bucket histogram: observation `v` lands in bucket
/// `⌊log2(v)⌋ + 1` (bucket 0 holds `v == 0`), covering the full `u64`
/// range in 65 buckets.  Percentiles are estimated as the upper bound of
/// the bucket containing the requested rank.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 { 0 } else { 64 - v.leading_zeros() as usize }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank, clamped to the observed max.  Exact for
    /// the recorded min/max, bucket-resolution otherwise.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Freezes the histogram into a snapshot row.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

/// A frozen histogram row: exact count/sum/min/max plus bucket-estimated
/// p50/p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// A frozen, deterministically ordered view of a folded event stream:
/// `BTreeMap`s so iteration — and the `Debug` rendering — is stable across
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Summed counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Max-folded gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Derives the simulator's metrics from a recorded event stream.
///
/// Counters: `sim.invocations`, `sim.sends`, `sim.cross_shard_sends`,
/// `sim.deliveries`, `sim.commits`, `sim.epochs`, `sim.epoch_stalls`
/// (epochs that crossed the barrier without executing a step).  Gauge:
/// `sim.queue_depth_peak`.  Histograms: `sim.queue_depth` (observed at
/// every send and delivery) and `sim.tx_latency_ticks` (RESP − INV per
/// committed transaction).
pub fn fold_events(events: &[ShardEvent]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let mut queue_depth = Log2Histogram::new();
    let mut latency = Log2Histogram::new();
    let mut peak_depth = 0i64;
    let bump = |snap: &mut MetricsSnapshot, name: &str| {
        *snap.counters.entry(name.to_string()).or_insert(0) += 1;
    };
    for se in events {
        match se.event {
            ObsEvent::InvocationDispatched { .. } => bump(&mut snap, "sim.invocations"),
            ObsEvent::MessageSent { queue_depth: d, cross_shard, .. } => {
                bump(&mut snap, "sim.sends");
                if cross_shard {
                    bump(&mut snap, "sim.cross_shard_sends");
                }
                queue_depth.observe(u64::from(d));
                peak_depth = peak_depth.max(i64::from(d));
            }
            ObsEvent::MessageDelivered { queue_depth: d, .. } => {
                bump(&mut snap, "sim.deliveries");
                queue_depth.observe(u64::from(d));
                peak_depth = peak_depth.max(i64::from(d));
            }
            ObsEvent::EpochBarrierCrossed { steps, .. } => {
                bump(&mut snap, "sim.epochs");
                if steps == 0 {
                    bump(&mut snap, "sim.epoch_stalls");
                }
            }
            ObsEvent::TxCommitted { at, invoked_at, .. } => {
                bump(&mut snap, "sim.commits");
                latency.observe(at.saturating_sub(invoked_at));
            }
            ObsEvent::MessageDropped { .. } => bump(&mut snap, "sim.fault_drops"),
            ObsEvent::MessageDuplicated { .. } => bump(&mut snap, "sim.fault_duplicates"),
            ObsEvent::ServerCrashed { .. } => bump(&mut snap, "sim.crashes"),
            ObsEvent::ServerRecovered { .. } => bump(&mut snap, "sim.recoveries"),
            ObsEvent::PartitionStarted { .. } => bump(&mut snap, "sim.partitions_started"),
            ObsEvent::PartitionHealed { .. } => bump(&mut snap, "sim.partitions_healed"),
            ObsEvent::CheckerRetired { .. } => bump(&mut snap, "sim.checker_retirements"),
        }
    }
    snap.gauges.insert("sim.queue_depth_peak".to_string(), peak_depth);
    if queue_depth.count() > 0 {
        snap.histograms.insert("sim.queue_depth".to_string(), queue_depth.snapshot());
    }
    if latency.count() > 0 {
        snap.histograms.insert("sim.tx_latency_ticks".to_string(), latency.snapshot());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::{ClientId, TxId};

    #[test]
    fn log2_histogram_buckets_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1110);
        assert!(s.p50 >= 3 && s.p50 <= 7, "p50 = {}", s.p50);
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn fold_events_derives_sim_metrics() {
        let events = vec![
            ShardEvent {
                shard: 0,
                event: ObsEvent::InvocationDispatched { at: 0, tx: TxId(0), client: ClientId(0) },
            },
            ShardEvent {
                shard: 1,
                event: ObsEvent::EpochBarrierCrossed { at: 5, epoch: 0, watermark: 9, steps: 0 },
            },
            ShardEvent {
                shard: 0,
                event: ObsEvent::TxCommitted { at: 12, tx: TxId(0), client: ClientId(0), invoked_at: 0 },
            },
        ];
        let snap = fold_events(&events);
        assert_eq!(snap.counters["sim.invocations"], 1);
        assert_eq!(snap.counters["sim.epochs"], 1);
        assert_eq!(snap.counters["sim.epoch_stalls"], 1);
        assert_eq!(snap.counters["sim.commits"], 1);
        assert_eq!(snap.histograms["sim.tx_latency_ticks"].max, 12);
    }
}
