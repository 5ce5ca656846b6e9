//! Open-loop (saturation) workload driving: latency under offered load.
//!
//! The round-based [`crate::driver::WorkloadDriver`] is **closed-loop**: it
//! waits for every transaction of a round before issuing the next round, so
//! the measured system is never offered more load than it just proved it
//! can complete — by construction it cannot show how latency degrades as
//! load approaches saturation.  This module drives the cluster **open
//! loop**: arrival times are fixed up front as a deterministic virtual-time
//! schedule generated from `(seed, rate)`, and transactions arrive at the
//! configured rate regardless of completions.  Latency is measured from
//! the *scheduled arrival* (not the moment the client got around to
//! issuing), so client-side queueing delay — the signature of saturation —
//! is part of every sample, and the p50/p99-vs-offered-rate curves emitted
//! by [`rate_sweep`] show the knee the SNOW latency argument is about.
//!
//! # Arrival model
//!
//! Inter-arrival gaps are exponential (a Poisson process) with mean
//! `1000 / rate` ticks, drawn from a dedicated arrival RNG; transaction
//! bodies (read/write mix, Zipf object choice, round-robin client
//! assignment) come from the ordinary [`WorkloadGenerator`].  The model
//! keeps the per-client well-formedness rule — one outstanding transaction
//! per client — by queueing each client's arrivals FIFO and *injecting*
//! the next one only when the client frees; its scheduled time is
//! preserved, so a busy client's next transaction starts late and the
//! delay shows up as latency.  The schedule runs on the crate's completion
//! loop (the [`crate::driver`] module docs), with every client in the
//! window — the loop `WorkloadDriver::run_paced` runs too, on a plan with
//! every arrival at time 0.
//!
//! # Saturation physics (serial engine)
//!
//! Every dispatch advances the virtual clock by at least one tick, so the
//! serial engine's service capacity is 1 event/tick; a transaction costing
//! `E` dispatch events saturates the system at an offered rate of about
//! `1000 / E` per kilotick.  The default sweep rates bracket that knee.
//!
//! # Determinism
//!
//! The schedule is a pure function of `(workload spec, rate, arrival
//! seed)`; the execution is a pure function of the schedule and the
//! scheduler seed — so open-loop histories are bit-identical across runs
//! (pinned by `tests/open_loop.rs`).

use crate::driver::{checked, completion_loop, Tap};
use crate::generator::{WorkloadGenerator, WorkloadSpec};
use crate::zipf::Zipf;
use snow_checker::{LatencyStats, Verdict};
use snow_core::hash::SplitMix;
use snow_core::{ClientId, History, Result, SnowError, SystemConfig, TxKind, TxSpec};
use snow_protocols::{Cluster, ClusterSpec};

/// Parameters of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// The transaction mix (read fraction, objects per tx, Zipf skew, body
    /// seed).
    pub workload: WorkloadSpec,
    /// Offered load: mean arrivals per 1000 virtual ticks (one kilotick).
    pub rate: u64,
    /// Total arrivals in the schedule.
    pub arrivals: usize,
    /// Seed of the arrival-time RNG (independent of the body seed, so the
    /// same mix can be offered at different rates with identical bodies).
    pub arrival_seed: u64,
}

impl OpenLoopSpec {
    /// A TAO-like mix at `rate` arrivals/kilotick, sized for benchmarks.
    pub fn tao_like(rate: u64) -> Self {
        OpenLoopSpec {
            workload: WorkloadSpec::tao_like(),
            rate,
            arrivals: 400,
            arrival_seed: 7,
        }
    }
}

/// One scheduled arrival: at virtual time `at`, `client` invokes `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled arrival time (virtual ticks).
    pub at: u64,
    /// The arriving client (round-robin per role, from the generator).
    pub client: ClientId,
    /// The transaction body.
    pub spec: TxSpec,
}

/// Generates the deterministic arrival schedule of `spec` against
/// `config`: exponential inter-arrival gaps (mean `1000 / rate` ticks,
/// minimum 1) with bodies drawn from the ordinary [`WorkloadGenerator`].
/// A pure function of `(spec, config)`.
///
/// # Panics
/// Panics if `spec.rate` is 0.
pub fn arrival_schedule(config: &SystemConfig, spec: &OpenLoopSpec) -> Vec<Arrival> {
    assert!(spec.rate > 0, "open-loop rate must be at least 1 per kilotick");
    let mut generator = WorkloadGenerator::new(config, spec.workload.clone());
    let mut rng = SplitMix::new(spec.arrival_seed);
    let mean_gap = 1000.0 / spec.rate as f64;
    let mut at = 0u64;
    (0..spec.arrivals)
        .map(|_| {
            let u = rng.unit();
            // Inverse-CDF exponential draw, floored at one tick so arrivals
            // stay strictly ordered per client.
            let gap = (-mean_gap * (1.0 - u).ln()).round().max(1.0) as u64;
            at += gap;
            let tx = generator.next_tx();
            Arrival { at, client: tx.client, spec: tx.spec }
        })
        .collect()
}

/// Summary of one open-loop run at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Offered load (nominal arrivals per kilotick, from the spec).
    pub offered_rate: u64,
    /// The schedule's realized offered rate: arrivals per kilotick of
    /// schedule span.  Sampling noise puts it on either side of nominal
    /// (the schedules pinned in `tests/open_loop.rs` realize 31.7 at a
    /// nominal 30 and 98.4 at 100); only where gaps approach one tick does
    /// the floor on a gap pull it visibly below (370.4 at 400).
    pub realized_offered_rate: f64,
    /// Completed transactions per kilotick of run duration.
    pub achieved_rate: f64,
    /// Arrivals scheduled.
    pub issued: usize,
    /// Transactions that completed.
    pub completed: usize,
    /// Virtual-time span of the run (first arrival to last event).
    pub duration: u64,
    /// Latency from *scheduled arrival* to RESP, all transactions
    /// (virtual ticks; includes client-side queueing delay).
    pub latency: LatencyStats,
    /// Latency of the READ transactions only.
    pub read_latency: LatencyStats,
    /// True once the system failed to keep up with the offered load
    /// (achieved < 95% of the *realized* offered rate): the saturation
    /// knee.
    pub saturated: bool,
}

/// Drives one open-loop run against an already-built cluster.  Returns the
/// history (checker-ready), taken from the cluster without a copy
/// ([`Cluster::take_history`]), and the report.
///
/// The cluster must be freshly built (no prior transactions) and deployed
/// over the same `config` the schedule was generated for.  Saturation runs
/// are long: build it with `ClusterSpec::max_steps(u64::MAX)`.  On
/// a cluster built with `ClusterSpec::observed`, drain the recorded events
/// afterwards with [`Cluster::drain_obs_events`] and feed them to
/// `snow_obs::perfetto_json` or `snow_obs::fold_events`.
pub fn drive_open_loop(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
) -> (History, OpenLoopReport) {
    drive_open_loop_tapped(cluster, config, spec, &mut |_| {})
}

/// [`drive_open_loop`]'s plan on the completion loop
/// (`crate::driver::completion_loop`), every client in the window, with
/// `tap` after every completion and once more after the last wait — the
/// streaming check drains freshly committed transactions into a
/// [`snow_checker::TagOrderStream`] here, while the run is still going.
fn drive_open_loop_tapped(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
    tap: &mut Tap,
) -> (History, OpenLoopReport) {
    let schedule = arrival_schedule(config, spec);
    let span = schedule.last().map_or(1, |a| a.at).max(1);
    let (history, run, planned) = completion_loop(cluster, schedule, usize::MAX, tap);
    // One pass over the history, one index per record
    // (`LatencyStats::from_samples` sorts, so sample order is free).
    let mut latencies = Vec::with_capacity(run.issued);
    let mut read_latencies = Vec::new();
    for rec in &history.records {
        let (Some(scheduled_at), Some(responded_at)) = (planned.of(rec.tx_id), rec.responded_at)
        else {
            continue;
        };
        let latency = responded_at.saturating_sub(scheduled_at);
        latencies.push(latency);
        if rec.kind() == TxKind::Read {
            read_latencies.push(latency);
        }
    }
    let completed = latencies.len();
    let duration = run.duration.max(1);
    let achieved_rate = completed as f64 * 1000.0 / duration as f64;
    let realized_offered_rate = run.issued as f64 * 1000.0 / span as f64;
    let report = OpenLoopReport {
        offered_rate: spec.rate,
        realized_offered_rate,
        achieved_rate,
        issued: run.issued,
        completed,
        duration,
        latency: LatencyStats::from_samples(&latencies),
        read_latency: LatencyStats::from_samples(&read_latencies),
        saturated: achieved_rate < 0.95 * realized_offered_rate,
    };
    (history, report)
}

/// [`drive_open_loop`] plus a strict-serializability verdict, mirroring
/// [`crate::driver::WorkloadDriver::run_checked_mode`] and sharing its
/// check path: a [`snow_checker::TagOrderStream`] rides along with the
/// run.  After every completion the cluster's commit log is drained into
/// the checker, each record read in place ([`Cluster::drain_commit_ids`],
/// [`Cluster::record`]), and the certification frontier advances past
/// everything the simulator can no longer invoke before — so a tagged run
/// is certified incrementally, in RESP order, by tag order.  When tags
/// cannot decide, the semantic stream engine checks the finished history.
/// Either way the verdict is [`snow_checker::check_auto`]'s on the
/// finished history, witness included.
pub fn drive_open_loop_checked(
    cluster: &mut dyn Cluster,
    config: &SystemConfig,
    spec: &OpenLoopSpec,
) -> (History, OpenLoopReport, Verdict) {
    checked(|tap| drive_open_loop_tapped(cluster, config, spec, tap))
}

/// One latency-vs-throughput curve: the per-rate reports of one cluster
/// spec, in offered-rate order, with the saturation knee (the first
/// saturated rate, if the sweep reached one).
#[derive(Debug, Clone)]
pub struct RateSweep {
    /// One report per offered rate, in sweep order.
    pub points: Vec<OpenLoopReport>,
}

impl RateSweep {
    /// The first offered rate the system could not keep up with, if any.
    pub fn knee(&self) -> Option<u64> {
        self.points.iter().find(|p| p.saturated).map(|p| p.offered_rate)
    }
}

/// Sweeps `cluster` across `rates` (arrivals per kilotick), driving the
/// same `(workload, arrival_seed, arrivals)` schedule shape at each rate
/// against a fresh build of the spec — the latency-vs-throughput curve of
/// its protocol on its network (scheduler or topology, faults included).
/// `snow table open-loop` (in `snow-bench`) prints these sweeps.
///
/// Returns `InvalidConfig`, before building anything, if a rate is 0.
pub fn rate_sweep(
    cluster: &ClusterSpec,
    base: &OpenLoopSpec,
    rates: &[u64],
) -> Result<RateSweep> {
    rates.iter().try_for_each(|&rate| positive_rate(rate))?;
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let spec = OpenLoopSpec { rate, ..base.clone() };
        let (_, report) = drive_open_loop(cluster.build()?.as_mut(), cluster.config(), &spec);
        points.push(report);
    }
    Ok(RateSweep { points })
}

/// The sweeps' rule for a rate: an `Err` where [`arrival_schedule`] panics.
fn positive_rate(rate: u64) -> Result<()> {
    if rate == 0 {
        return Err(SnowError::InvalidConfig(
            "open-loop rate 0: the offered rate must be at least 1 per kilotick".into(),
        ));
    }
    Ok(())
}

/// The sweeps' rule for a Zipf exponent over `objects` objects: an `Err`
/// where [`WorkloadGenerator::new`] panics — an exponent so steep that
/// fewer objects keep nonzero mass than `workload`'s transactions touch,
/// so no draw could complete one.
fn drawable(objects: usize, workload: &WorkloadSpec, exponent: f64) -> Result<()> {
    let touched = workload.objects_per_read.max(workload.objects_per_write);
    let with_mass = Zipf::new(objects, exponent).items_with_mass();
    if with_mass < touched {
        return Err(SnowError::InvalidConfig(format!(
            "Zipf exponent {exponent}: {with_mass} of {objects} objects keep nonzero mass, \
             fewer than the {touched} a transaction touches"
        )));
    }
    Ok(())
}

/// Sweeps Zipf skew at a fixed offered rate: hot-key contention points.
/// Returns `(exponent, report)` pairs in sweep order.  Contention-free
/// reads barely move: on the pinned table (`tests/open_loop.rs`: rate 30,
/// `mwmr(2,2,2)`, write-heavy) AlgC's read p99 goes 42 → 44 → 49 over
/// exponents 0.0 / 0.8 / 1.2.  The blocking baseline is past its knee at
/// that rate at *every* exponent (achieved 22.0–24.4 of 31.7 offered), so
/// its p99 — 3 234 / 1 812 / 2 247 — measures a growing backlog and is not
/// monotone in skew; sweep a rate below its knee to isolate the hot key.
///
/// Returns `InvalidConfig`, before building anything, if `base.rate` is 0
/// or an exponent leaves fewer objects with nonzero mass than a
/// transaction touches.
pub fn zipf_sweep(
    cluster: &ClusterSpec,
    base: &OpenLoopSpec,
    exponents: &[f64],
) -> Result<Vec<(f64, OpenLoopReport)>> {
    positive_rate(base.rate)?;
    let objects = cluster.config().num_objects as usize;
    exponents.iter().try_for_each(|&exponent| drawable(objects, &base.workload, exponent))?;
    let mut points = Vec::with_capacity(exponents.len());
    for &exponent in exponents {
        let spec = OpenLoopSpec {
            workload: WorkloadSpec { zipf_exponent: exponent, ..base.workload.clone() },
            ..base.clone()
        };
        let (_, report) = drive_open_loop(cluster.build()?.as_mut(), cluster.config(), &spec);
        points.push((exponent, report));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CheckMode;
    use snow_checker::check_auto;
    use snow_core::{ServerId, TxId, TxRecord};
    use snow_protocols::{ProtocolKind, SchedulerKind};
    use snow_sim::topology::TICK;
    use snow_sim::{
        EndpointSel, FaultAction, FaultRegion, FaultSchedule, Partition, PartitionPolicy, Topology,
    };
    use std::sync::Arc;

    /// Saturation runs are long: no step cap.
    fn cluster_spec(protocol: ProtocolKind, config: &SystemConfig) -> ClusterSpec {
        ClusterSpec::new(protocol, config)
            .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
            .max_steps(u64::MAX)
    }

    #[test]
    fn schedule_is_deterministic_and_rate_shaped() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = OpenLoopSpec { arrivals: 500, ..OpenLoopSpec::tao_like(50) };
        let a = arrival_schedule(&config, &spec);
        let b = arrival_schedule(&config, &spec);
        assert_eq!(a, b, "schedule must be a pure function of (seed, rate)");
        assert_eq!(a.len(), 500);
        // Mean gap ≈ 1000/rate = 20 ticks: the 500-arrival span should be
        // within a factor of two of 10_000 ticks.
        let span = a.last().unwrap().at;
        assert!((5_000..20_000).contains(&span), "span {span}");
        // Arrival times strictly increase (gaps are floored at 1).
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn different_rates_reuse_the_same_bodies() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let slow = arrival_schedule(&config, &OpenLoopSpec::tao_like(10));
        let fast = arrival_schedule(&config, &OpenLoopSpec::tao_like(200));
        assert_eq!(slow.len(), fast.len());
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.client, f.client);
            assert_eq!(s.spec, f.spec);
            assert!(s.at >= f.at, "slower rate must not arrive earlier");
        }
    }

    #[test]
    fn low_rate_run_keeps_up_and_high_rate_saturates() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 300, ..OpenLoopSpec::tao_like(0).clone() };
        // Far below the ~1000/E knee: the system keeps up.
        let spec = OpenLoopSpec { rate: 20, ..base.clone() };
        let cluster = cluster_spec(ProtocolKind::AlgB, &config);
        let (history, low) = drive_open_loop(cluster.build().unwrap().as_mut(), &config, &spec);
        assert_eq!(low.completed, 300);
        assert_eq!(history.incomplete_count(), 0);
        assert!(!low.saturated, "rate 20: achieved {:.1}", low.achieved_rate);
        // Far above it: arrivals outpace the 1-event/tick service capacity,
        // queueing delay accumulates, achieved rate caps out.
        let spec = OpenLoopSpec { rate: 400, ..base };
        let (_, high) = drive_open_loop(cluster.build().unwrap().as_mut(), &config, &spec);
        assert!(high.saturated, "rate 400: achieved {:.1}", high.achieved_rate);
        assert!(
            high.latency.p99 > low.latency.p99,
            "saturation must inflate p99: {} vs {}",
            high.latency.p99,
            low.latency.p99
        );
    }

    #[test]
    fn sweep_finds_a_knee_and_is_checkable() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 200, ..OpenLoopSpec::tao_like(0) };
        let cluster = cluster_spec(ProtocolKind::AlgC, &config);
        let sweep = rate_sweep(&cluster, &base, &[20, 400]).unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.knee(), Some(400));
        let (_, report, verdict) = drive_open_loop_checked(
            cluster.build().unwrap().as_mut(),
            &config,
            &OpenLoopSpec { rate: 100, ..base },
        );
        assert_eq!(report.completed, 200);
        assert!(verdict.is_serializable(), "{verdict:?}");
    }

    #[test]
    fn zipf_sweep_varies_contention_only() {
        let config = SystemConfig::mwmr(2, 2, 2);
        let base = OpenLoopSpec {
            workload: WorkloadSpec::write_heavy(),
            rate: 30,
            arrivals: 80,
            arrival_seed: 3,
        };
        let points =
            zipf_sweep(&cluster_spec(ProtocolKind::Blocking, &config), &base, &[0.0, 1.2]).unwrap();
        assert_eq!(points.len(), 2);
        for (exp, report) in &points {
            assert_eq!(report.issued, 80, "exponent {exp}");
            assert!(report.completed > 0, "exponent {exp}");
        }
    }

    #[test]
    fn sweeps_reject_a_zero_rate_instead_of_panicking() {
        let config = SystemConfig::mwmr(2, 2, 2);
        let cluster = cluster_spec(ProtocolKind::AlgB, &config);
        let swept = rate_sweep(&cluster, &OpenLoopSpec::tao_like(0), &[20, 0]);
        assert!(matches!(swept, Err(SnowError::InvalidConfig(why)) if why.contains("rate 0")));
        let swept = zipf_sweep(&cluster, &OpenLoopSpec::tao_like(0), &[0.0]);
        assert!(matches!(swept, Err(SnowError::InvalidConfig(why)) if why.contains("rate 0")));
    }

    /// At exponent 60 only the first of 8 objects keeps nonzero mass, and
    /// a generator would refuse the two-object transactions; the sweep
    /// refuses it before running even the valid exponent listed first.
    #[test]
    fn zipf_sweep_rejects_an_exponent_without_enough_objects_with_mass() {
        let config = SystemConfig::mwmr(8, 2, 2);
        let cluster = cluster_spec(ProtocolKind::AlgB, &config);
        let base =
            OpenLoopSpec { workload: WorkloadSpec::write_heavy(), ..OpenLoopSpec::tao_like(30) };
        let swept = zipf_sweep(&cluster, &base, &[10.0, 60.0]);
        assert!(
            matches!(&swept, Err(SnowError::InvalidConfig(why)) if why.contains("1 of 8 objects")),
            "{swept:?}"
        );
        let steep = OpenLoopSpec { arrivals: 20, ..base };
        assert_eq!(zipf_sweep(&cluster, &steep, &[10.0]).unwrap().len(), 1);
    }

    /// Open-loop runs get `check_auto`'s verdict on the finished history,
    /// witness included — AlgB and AlgC certified by tag order as they
    /// commit, the untagged Blocking by the semantic stream engine — and
    /// the check leaves the run as the unchecked driver drives it.
    #[test]
    fn streaming_open_loop_agrees_with_post_hoc() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let base = OpenLoopSpec { arrivals: 150, ..OpenLoopSpec::tao_like(0) };
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking] {
            let cluster = cluster_spec(protocol, &config);
            for rate in [30, 300] {
                let spec = OpenLoopSpec { rate, ..base.clone() };
                let (history, _) =
                    drive_open_loop(cluster.build().unwrap().as_mut(), &config, &spec);
                let posthoc = check_auto(&history);
                let (stream_history, report, stream) =
                    drive_open_loop_checked(cluster.build().unwrap().as_mut(), &config, &spec);
                assert_eq!(
                    format!("{history:?}"),
                    format!("{stream_history:?}"),
                    "{protocol:?} rate {rate}: the check changed the run"
                );
                assert_eq!(report.issued, 150);
                assert!(posthoc.is_serializable(), "{protocol:?} rate {rate}: {posthoc:?}");
                assert_eq!(stream, posthoc, "{protocol:?} rate {rate}");
            }
        }
    }

    /// What the deleted `run_open_loop*` family could not express: the
    /// checked open loop on a topology, and under a fault schedule.
    #[test]
    fn streaming_check_runs_on_a_topology_and_under_faults() {
        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = OpenLoopSpec { arrivals: 150, ..OpenLoopSpec::tao_like(100) };
        let wan3 = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .topology(Arc::new(Topology::wan3(&config)), 0x3A)
            .max_steps(u64::MAX);
        let run = |cluster: &ClusterSpec| {
            let mut cluster = cluster.build().unwrap();
            drive_open_loop_checked(cluster.as_mut(), &config, &spec)
        };

        let (history, report, stream) = run(&wan3);
        assert_eq!(report.completed, 150);
        assert_eq!(
            std::mem::discriminant(&stream),
            std::mem::discriminant(&check_auto(&history)),
            "stream {stream:?} vs check_auto on the same history"
        );
        assert!(stream.is_serializable(), "{stream:?}");

        // `scenario_partition_during_write`'s cut, in site-ticks: its own
        // window (ticks 20–90) heals before the first WAN delivery.  Only
        // the accounting is asserted here (verdict agreement under faults is
        // `tests/fault_checker.rs`'s job): every issued transaction retires,
        // committed or aborted.
        let partition = FaultSchedule::new(0xBEEF).with_partition(Partition::isolate_server(
            ServerId(0),
            20 * TICK,
            90 * TICK,
            PartitionPolicy::Queue,
        ));
        let (faulty, report, _) = run(&wan3.clone().faults(partition));
        assert_eq!(report.issued, 150);
        assert_eq!(faulty.len(), 150);
        assert_eq!(faulty.incomplete_count(), 0);
        assert!(faulty.records.iter().all(|r| r.outcome.is_some()));
        assert_ne!(
            format!("{history:?}"),
            format!("{faulty:?}"),
            "the partition must actually cut traffic"
        );
    }

    /// Delegates to a built cluster and records what the driver asks of it:
    /// every `is_complete` probe, every completion wait, every injection.
    struct Watched {
        inner: Box<dyn Cluster>,
        probes: std::cell::Cell<usize>,
        waits: usize,
        /// `(tx, scheduled arrival, is a READ)` per `invoke_at`.
        injected: Vec<(TxId, u64, bool)>,
        /// `(transactions, invocations before it)` per `reserve`.
        reserved: Vec<(usize, usize)>,
    }

    impl Watched {
        fn new(inner: Box<dyn Cluster>) -> Self {
            Watched {
                inner,
                probes: Default::default(),
                waits: 0,
                injected: Vec::new(),
                reserved: Vec::new(),
            }
        }
    }

    impl Cluster for Watched {
        fn invoke_at(&mut self, at: u64, client: ClientId, spec: TxSpec) -> TxId {
            let is_read = spec.kind() == TxKind::Read;
            let tx = self.inner.invoke_at(at, client, spec);
            self.injected.push((tx, at, is_read));
            tx
        }
        fn reserve(&mut self, transactions: usize) {
            self.reserved.push((transactions, self.injected.len()));
            self.inner.reserve(transactions)
        }
        fn run_until_quiescent(&mut self) -> u64 {
            self.inner.run_until_quiescent()
        }
        fn run_until_complete(&mut self, tx: TxId) -> bool {
            self.inner.run_until_complete(tx)
        }
        fn run_until_any_complete(&mut self, watch: &[TxId]) -> Option<TxId> {
            self.waits += 1;
            self.inner.run_until_any_complete(watch)
        }
        fn is_complete(&self, tx: TxId) -> bool {
            self.probes.set(self.probes.get() + 1);
            self.inner.is_complete(tx)
        }
        fn history(&self) -> History {
            self.inner.history()
        }
        fn take_history(&mut self) -> History {
            self.inner.take_history()
        }
        fn now(&self) -> u64 {
            self.inner.now()
        }
        fn record(&self, tx: TxId) -> Option<&TxRecord> {
            self.inner.record(tx)
        }
        fn drain_commit_ids(&mut self, ids: &mut Vec<TxId>) -> u64 {
            self.inner.drain_commit_ids(ids)
        }
        fn drain_commits(&mut self) -> snow_sim::CommitDrain {
            self.inner.drain_commits()
        }
    }

    /// The benchmark's `open-c-read` inputs for its `--seed`: AlgC on
    /// `mwmr(8, 2, 6)`, 96 % four-object reads, Zipf 0.99, 50 arrivals per
    /// kilotick, and the body / arrival / network seeds it derives (three
    /// successive SplitMix64 outputs).  Returns the network seed last.
    fn open_c_read(arrivals: usize, seed: u64) -> (SystemConfig, OpenLoopSpec, u64) {
        let mut seeds = SplitMix::new(seed);
        let (body, arrival_seed, net) = (seeds.next_u64(), seeds.next_u64(), seeds.next_u64());
        let workload = WorkloadSpec {
            read_fraction: 0.96,
            objects_per_read: 4,
            objects_per_write: 2,
            zipf_exponent: 0.99,
            seed: body,
        };
        (
            SystemConfig::mwmr(8, 2, 6),
            OpenLoopSpec { workload, rate: 50, arrivals, arrival_seed },
            net,
        )
    }

    /// Open-loop driver cost is linear, as a pure count: the cluster names
    /// each transaction that freed a client, so the driver waits once per
    /// transaction and never asks `is_complete`.  (It used to sweep all
    /// active clients after every wait — 8 probes per transaction here.)
    #[test]
    fn the_driver_waits_once_per_transaction_and_probes_nothing() {
        let (config, spec, _) = open_c_read(2_000, 3);
        let mut cluster = Watched::new(cluster_spec(ProtocolKind::AlgC, &config).build().unwrap());
        let (history, report) = drive_open_loop(&mut cluster, &config, &spec);
        assert_eq!((report.issued, report.completed, history.len()), (2_000, 2_000, 2_000));
        assert_eq!(cluster.probes.get(), 0, "driver-side is_complete probes");
        // One wait per completion, plus the one that finds nothing left.
        assert_eq!(cluster.waits, 2_000 + 1);
    }

    /// The paced driver runs on the same completion loop, with a window of
    /// 4 of the 6 clients: one wait per transaction, no probe.  (It used to
    /// wait twice per transaction — a second call to ask whether the wait
    /// had retired others — 2 001 waits here.)
    #[test]
    fn the_paced_driver_waits_once_per_transaction_and_probes_nothing() {
        use crate::driver::WorkloadDriver;
        let config = SystemConfig::mwmr(4, 3, 3);
        let mut cluster = Watched::new(cluster_spec(ProtocolKind::AlgB, &config).build().unwrap());
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (history, report) =
            WorkloadDriver::new(4).run_paced(&mut cluster, &mut generator, 1_000);
        assert_eq!((report.issued, report.completed, history.len()), (1_000, 1_000, 1_000));
        assert_eq!(report.rounds, 1_000, "one wave per transaction without faults");
        assert_eq!(cluster.probes.get(), 0, "driver-side is_complete probes");
        assert_eq!(cluster.waits, 1_000 + 1);
    }

    /// Every driver sizes the record log once, before its first
    /// invocation, with exactly the count it then issues.
    #[test]
    fn every_driver_reserves_what_it_issues_once_before_invoking() {
        use crate::driver::WorkloadDriver;
        let config = SystemConfig::mwmr(4, 2, 2);
        let build = || Watched::new(cluster_spec(ProtocolKind::AlgB, &config).build().unwrap());
        let generator = || WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (driver, spec) = (WorkloadDriver::new(4), OpenLoopSpec::tao_like(100));
        let planned = |name: &str, cluster: Watched, issued: usize| {
            assert_eq!(cluster.reserved, [(issued, 0)], "{name}");
            assert_eq!(cluster.injected.len(), issued, "{name}");
        };
        let mut cluster = build();
        driver.run(&mut cluster, &mut generator(), 40);
        planned("run", cluster, 40);
        let mut cluster = build();
        driver.run_checked_mode(&mut cluster, &mut generator(), 40, CheckMode::Streaming);
        planned("run_checked_mode", cluster, 40);
        let mut cluster = build();
        driver.run_paced(&mut cluster, &mut generator(), 40);
        planned("run_paced", cluster, 40);
        let mut cluster = build();
        driver.run_read_probe(&mut cluster, &mut generator(), 10, 2);
        planned("run_read_probe", cluster, 30);
        let mut cluster = build();
        drive_open_loop(&mut cluster, &config, &spec);
        planned("drive_open_loop", cluster, spec.arrivals);
        let mut cluster = build();
        drive_open_loop_checked(&mut cluster, &config, &spec);
        planned("drive_open_loop_checked", cluster, spec.arrivals);
    }

    /// Instrumentation is final at RESP: the record a commit drain names,
    /// read in place (`Cluster::record`) when the transaction completes,
    /// is the record of the history the driver takes at the end of the run
    /// — also when duplicated requests keep answering READs that already
    /// responded.  Nothing commits after the take.  This is what lets the
    /// streaming check hold a rank instead of a copy and read the record
    /// back later, from the cluster or from the taken history.
    #[test]
    fn drained_records_equal_the_final_history() {
        let spec = OpenLoopSpec { arrivals: 200, ..OpenLoopSpec::tao_like(100) };
        for protocol in ProtocolKind::all() {
            let config = protocol.config(4, 2, 2);
            let clean = cluster_spec(protocol, &config);
            let mut cases = vec![("clean", clean.clone())];
            if [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Simple].contains(&protocol) {
                cases.push(("dup storm", clean.faults(snow_protocols::scenario_dup_storm())));
            }
            for (name, cluster) in cases {
                let mut cluster = cluster.build().unwrap();
                let (mut drained, mut ids) = (Vec::new(), Vec::new());
                let mut drain = |cluster: &mut dyn Cluster| {
                    cluster.drain_commit_ids(&mut ids);
                    drained.extend(ids.iter().map(|&tx| cluster.record(tx).unwrap().clone()));
                };
                let (history, _) =
                    drive_open_loop_tapped(cluster.as_mut(), &config, &spec, &mut drain);
                cluster.run_until_quiescent();
                drain(cluster.as_mut());
                let differing = drained.iter().filter(|&r| history.get(r.tx_id) != Some(r)).count();
                assert_eq!((drained.len(), differing), (200, 0), "{protocol:?}/{name}");
            }
        }
    }

    /// The one-pass report equals the per-transaction one it replaced
    /// (`History::get` per injected id), fault-free and with aborts in the
    /// history.
    #[test]
    fn one_pass_report_equals_the_per_transaction_reference() {
        let (config, spec, _) = open_c_read(2_000, 4);
        let clean = cluster_spec(ProtocolKind::AlgC, &config);
        let (any, forever) = (EndpointSel::Any, u64::MAX);
        let lossy = clean.clone().faults(FaultSchedule::new(9).with_region(FaultRegion {
            chance_pct: 1,
            ..FaultRegion::always(FaultAction::Drop, any, any, 0, forever)
        }));
        for (name, cluster) in [("clean", clean), ("1% drop", lossy)] {
            let mut cluster = Watched::new(cluster.build().unwrap());
            let (history, report) = drive_open_loop(&mut cluster, &config, &spec);
            let (mut all, mut reads) = (Vec::new(), Vec::new());
            for &(tx, scheduled_at, is_read) in &cluster.injected {
                let Some(responded_at) = history.get(tx).and_then(|r| r.responded_at) else {
                    continue;
                };
                all.push(responded_at.saturating_sub(scheduled_at));
                if is_read {
                    reads.push(responded_at.saturating_sub(scheduled_at));
                }
            }
            assert_eq!(cluster.injected.len(), 2_000, "{name}");
            assert_eq!(report.completed, all.len(), "{name}");
            assert_eq!(report.latency, LatencyStats::from_samples(&all), "{name}");
            assert_eq!(report.read_latency, LatencyStats::from_samples(&reads), "{name}");
            let aborted = history.records.iter().filter(|r| {
                r.outcome.as_ref().is_some_and(|o| o.is_aborted())
            });
            assert_eq!(aborted.count() > 0, name != "clean", "{name}");
        }
    }

    /// ROADMAP 1(d): the benchmark's `open-c-read --seed 1` (10 000
    /// arrivals) has one AlgC READ with `rounds == 2`
    /// (`protocols.rounds_per_read` 1.000104 = 9 599 / 9 598).  It is the
    /// protocol's documented targeted second round (`list` module docs),
    /// not an instrumentation artifact: on a concrete simulation the READs
    /// the history instruments with two rounds are exactly the ones the
    /// readers count as fallbacks.
    #[test]
    fn every_two_round_algc_read_is_a_counted_fallback() {
        use snow_protocols::{deploy_any, list::ListNode, AnyNode};
        use snow_sim::{LatencyScheduler, Simulation};

        let (config, spec, net) = open_c_read(10_000, 1);
        let mut sim = Simulation::new(LatencyScheduler::new(net, 1, 16))
            .with_max_steps(u64::MAX);
        for node in deploy_any(ProtocolKind::AlgC, &config).unwrap() {
            sim.add_process(node);
        }
        let (history, report) = drive_open_loop(&mut sim, &config, &spec);
        assert_eq!(report.completed, 10_000);
        let two_round_reads = history.reads().filter(|r| r.rounds == 2).count() as u64;
        assert!(history.reads().all(|r| r.rounds <= 2));
        let fallbacks: u64 = config
            .readers()
            .map(|r| match sim.process(snow_core::ProcessId::Client(r)) {
                Some(AnyNode::List(ListNode::Reader(reader))) => reader.fallback_rounds(),
                other => panic!("reader {r:?} is {other:?}"),
            })
            .sum();
        assert_eq!(two_round_reads, fallbacks);
        assert_eq!(fallbacks, 1, "this seed is pinned because the race fires on it, once");
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn zero_rate_is_rejected() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let _ = arrival_schedule(&config, &OpenLoopSpec::tao_like(0));
    }
}
