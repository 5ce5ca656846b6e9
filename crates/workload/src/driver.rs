//! Drives a generated workload against any [`Cluster`].
//!
//! The driver issues transactions in *rounds*: each round, every client that
//! has work gets exactly one transaction, all invoked at the same simulation
//! time, and the cluster then runs until quiescent.  Within a round the
//! transactions are concurrent (the scheduler interleaves their messages
//! arbitrarily); across rounds the per-client well-formedness requirement of
//! the model (one outstanding transaction per client) is preserved by
//! construction.
//!
//! This is a **closed-loop** driver: each round waits for the previous one,
//! so the offered load adapts to completions and latency can never reveal
//! saturation.  For latency-under-offered-load curves use the open-loop
//! driver in [`crate::open_loop`], which schedules arrivals up front at a
//! configured rate.

use crate::generator::WorkloadGenerator;
use snow_checker::{TagOrderStream, Verdict};
use snow_core::{ClientId, History, TxId, TxSpec};
use snow_protocols::Cluster;
use std::collections::{BTreeMap, VecDeque};

/// Summary of a driven workload run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Number of transactions issued.
    pub issued: usize,
    /// Number of transactions that completed.
    pub completed: usize,
    /// Number of rounds driven.
    pub rounds: usize,
    /// Total simulated duration (ticks).
    pub duration: u64,
}

/// How a checked driver run certifies strict serializability.  Every
/// checked run streams; the enum stays for the callers that name the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Feed a [`TagOrderStream`] from the cluster's commit drain as
    /// transactions complete, each record by reference where the cluster
    /// keeps it.  A tagged run (Algorithms A, B and C) is certified by
    /// Lemma 20's tag order as it commits, with the verdict `check_auto`
    /// gives, witness included, and no record copied: the stream holds a
    /// rank per uncertified commit and reads the record back from the
    /// cluster at certification.  When tags cannot decide (an untagged
    /// protocol, or tags a fault broke) the semantic
    /// [`snow_checker::StreamChecker`] decides — the engine `check_auto`
    /// hands over to on the finished history, fed live here — on its own
    /// copies, with memory O(live window + in-flight) and violations
    /// attributed to the offending commit.
    #[default]
    Streaming,
}

/// Ingests one commit drain into a streaming checker, by reference: the
/// drained commits in RESP order, each read where the cluster keeps it,
/// then the drain's invocation floor as the new frontier watermark, with
/// the cluster as the record source certification reads back from.  A
/// record is final at its RESP (`open_loop`'s
/// `drained_records_equal_the_final_history` pins it), so what the checker
/// reads mid-run is what the taken history ends with.  `ids` is the
/// drain's reused buffer.  Shared by the closed-loop and open-loop
/// streaming modes.
pub(crate) fn drain_into(
    checker: &mut TagOrderStream,
    ids: &mut Vec<TxId>,
    cluster: &mut dyn Cluster,
) {
    let inv_floor = cluster.drain_commit_ids(ids);
    let cluster: &dyn Cluster = cluster;
    for &tx in ids.iter() {
        checker.ingest(cluster.record(tx).expect("a drained commit has a record"));
    }
    checker.advance_watermark(inv_floor, |_, tx| cluster.record(tx));
}

/// The transactions of a taken history that completed.
fn completed(history: &History) -> usize {
    history.records.iter().filter(|rec| rec.is_complete()).count()
}

/// Drives workloads against a cluster.
pub struct WorkloadDriver {
    /// Transactions issued per round (at most one per client).
    pub per_round: usize,
}

impl Default for WorkloadDriver {
    fn default() -> Self {
        WorkloadDriver { per_round: 8 }
    }
}

impl WorkloadDriver {
    /// Creates a driver issuing at most `per_round` transactions per round.
    pub fn new(per_round: usize) -> Self {
        WorkloadDriver { per_round }
    }

    /// Runs `total` transactions from `generator` against `cluster` and
    /// returns the history plus a summary.  The history is taken from the
    /// cluster ([`Cluster::take_history`]): every record it logged since the
    /// previous take, which on a freshly built cluster is exactly this
    /// run's.  On a cluster built with
    /// `ClusterSpec::observed`, drain the recorded events afterwards with
    /// [`Cluster::drain_obs_events`].
    pub fn run(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
    ) -> (History, DriverReport) {
        self.run_tapped(cluster, generator, total, &mut |_| {})
    }

    /// [`WorkloadDriver::run`] with an observation tap invoked after each
    /// round settles — the hook the streaming check mode uses to drain
    /// commits as they happen.  The no-op tap reproduces `run` exactly.  The
    /// last round's tap is the last call before the take, so a draining
    /// tap has seen every commit the taken history holds.
    fn run_tapped(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
        tap: &mut dyn FnMut(&mut dyn Cluster),
    ) -> (History, DriverReport) {
        let mut issued = 0usize;
        let mut rounds = 0usize;
        let start = cluster.now();
        cluster.reserve(total);
        // This round's clients, sorted, and its transactions: cleared per
        // round, reused across.
        let mut seen_clients: Vec<ClientId> = Vec::with_capacity(self.per_round);
        let mut batch: Vec<(ClientId, TxSpec)> = Vec::with_capacity(self.per_round);
        while issued < total {
            let this_round = self.per_round.min(total - issued);
            rounds += 1;
            seen_clients.clear();
            let now = cluster.now();
            // Draw until we have `this_round` transactions from distinct
            // clients (a client gets at most one per round to stay
            // well-formed), then schedule the round, all at `now`.
            let mut guard = 0usize;
            while batch.len() < this_round && guard < this_round * 50 {
                guard += 1;
                let tx = generator.next_tx();
                let Err(at) = seen_clients.binary_search(&tx.client) else {
                    continue;
                };
                seen_clients.insert(at, tx.client);
                batch.push((tx.client, tx.spec));
            }
            issued += batch.len();
            for (client, spec) in batch.drain(..) {
                cluster.invoke_at(now, client, spec);
            }
            cluster.run_until_quiescent();
            tap(cluster);
        }
        let history = cluster.take_history();
        let report = DriverReport {
            issued,
            completed: completed(&history),
            rounds,
            duration: cluster.now().saturating_sub(start),
        };
        (history, report)
    }

    /// Runs `total` transactions with **per-client pacing**: up to
    /// `per_round` clients each keep exactly one transaction outstanding,
    /// and a client's next transaction is injected the moment its previous
    /// one completes — instead of the whole round waiting for its slowest
    /// member.  The plan is drawn from the generator up front into
    /// per-client FIFO queues (the open-loop driver's machinery), so each
    /// client runs its own transactions in draw order and the one-
    /// outstanding-per-client well-formedness holds by construction.
    ///
    /// Fully deterministic: injection times come from the cluster clock and
    /// the refill rotation is seeded in client order, so a run is a pure
    /// function of `(cluster, generator seed, total)`.
    pub fn run_paced(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
    ) -> (History, DriverReport) {
        let start = cluster.now();
        cluster.reserve(total);
        let window = self.per_round.max(1);
        let mut queues: BTreeMap<ClientId, VecDeque<TxSpec>> = BTreeMap::new();
        for _ in 0..total {
            let tx = generator.next_tx();
            queues.entry(tx.client).or_default().push_back(tx.spec);
        }
        let mut rotation: VecDeque<ClientId> = queues.keys().copied().collect();
        // `owner[i]` is the client whose transaction is `active[i]`.
        let mut active: Vec<TxId> = Vec::new();
        let mut owner: Vec<ClientId> = Vec::new();
        let mut rest: Vec<TxId> = Vec::new();
        let mut issued = 0usize;
        let mut waves = 0usize;
        loop {
            // Keep up to `window` clients busy, one transaction each.
            while active.len() < window {
                let Some(client) = rotation.pop_front() else { break };
                let Some(spec) = queues.get_mut(&client).and_then(|q| q.pop_front()) else {
                    continue;
                };
                let tx = cluster.invoke_at(cluster.now(), client, spec);
                issued += 1;
                active.push(tx);
                owner.push(client);
            }
            // The open-loop driver's handshake: the cluster names the
            // transaction that completed (the first complete one in
            // `active` order) and the driver frees that client.
            let Some(mut done) = cluster.run_until_any_complete(&active) else {
                break; // nothing outstanding, or the cluster stalled
            };
            waves += 1;
            loop {
                let slot = active
                    .iter()
                    .position(|&tx| tx == done)
                    .expect("the cluster returns a member of the watch list");
                active.swap_remove(slot);
                let client = owner.swap_remove(slot);
                // A client with remaining work rejoins the rotation
                // immediately.
                if queues.get(&client).is_some_and(|q| !q.is_empty()) {
                    rotation.push_back(client);
                }
                // A fault quiescence retires several at once, and all of
                // them are freed before anything is
                // refilled.  Everything ahead of `slot` was passed over as
                // incomplete; ask about the rest with `done` — complete — as
                // the last entry, so the cluster answers from its entry scan
                // and cannot step.
                rest.clear();
                rest.extend_from_slice(&active[slot..]);
                rest.push(done);
                match cluster.run_until_any_complete(&rest) {
                    Some(next) if next != done => done = next,
                    _ => break,
                }
            }
        }
        let history = cluster.take_history();
        let report = DriverReport {
            issued,
            completed: completed(&history),
            rounds: waves,
            duration: cluster.now().saturating_sub(start),
        };
        (history, report)
    }

    /// [`WorkloadDriver::run`] plus a strict-serializability verdict over
    /// the whole driven history — not a sample — so every workload run is
    /// verifiable end to end.
    ///
    /// The check streams ([`CheckMode::Streaming`], the only mode): after
    /// every round the cluster's commit drain is fed, by reference, to a
    /// [`TagOrderStream`], which certifies a tagged run by tag order as it
    /// commits and hands an untagged or tag-breaking one to the semantic
    /// stream engine, fed live.
    ///
    /// On a run that Lemma 20's tag order certifies (Algorithms A, B and C
    /// without faults) the verdict is [`snow_checker::check_auto`]'s on the
    /// finished history, witness included.  On the untagged protocols
    /// (Blocking, Eiger, Simple) both run the stream engine, one over the
    /// drains with their invocation floors as watermarks, the other over
    /// the finished history with hindsight watermarks, so their witnesses
    /// may differ.  `streaming_check_mode_agrees_with_post_hoc` runs all
    /// six protocols once each (40 transactions): equal verdicts on A, B
    /// and C, both certify Blocking, and both convict Eiger and Simple.
    ///
    /// ```
    /// use snow_core::SystemConfig;
    /// use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
    /// use snow_workload::{CheckMode, WorkloadDriver, WorkloadGenerator, WorkloadSpec};
    ///
    /// let config = SystemConfig::mwmr(4, 2, 2);
    /// let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
    ///     .scheduler(SchedulerKind::Latency { seed: 5, min: 1, max: 15 })
    ///     .build()
    ///     .unwrap();
    /// let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    ///
    /// let (history, report, verdict) = WorkloadDriver::new(4).run_checked_mode(
    ///     cluster.as_mut(),
    ///     &mut generator,
    ///     40,
    ///     CheckMode::Streaming,
    /// );
    /// assert_eq!(report.completed, 40);
    /// assert_eq!(history.len(), 40);
    /// assert!(verdict.is_serializable(), "Algorithm B guarantees S: {verdict:?}");
    /// ```
    pub fn run_checked_mode(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
        mode: CheckMode,
    ) -> (History, DriverReport, Verdict) {
        let CheckMode::Streaming = mode;
        let (mut checker, mut ids) = (TagOrderStream::new(), Vec::new());
        let (history, report) = self.run_tapped(cluster, generator, total, &mut |cluster| {
            drain_into(&mut checker, &mut ids, cluster);
        });
        let verdict = checker.finish(&history);
        (history, report, verdict)
    }

    /// Runs a read-latency probe: `writes_per_round` WRITEs and one READ are
    /// issued concurrently each round, `rounds` times.  This is the shape
    /// used by the latency tables (reads under conflicting writes).
    pub fn run_read_probe(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        rounds: usize,
        writes_per_round: usize,
    ) -> (History, DriverReport) {
        let start = cluster.now();
        cluster.reserve(rounds * (writes_per_round + 1));
        let mut issued = 0usize;
        // This round's writers, sorted, and its transactions: cleared per
        // round, reused across.
        let mut seen_writers: Vec<ClientId> = Vec::with_capacity(writes_per_round);
        let mut batch: Vec<(ClientId, TxSpec)> = Vec::with_capacity(writes_per_round + 1);
        for _ in 0..rounds {
            let now = cluster.now();
            seen_writers.clear();
            let mut guard = 0usize;
            while batch.len() < writes_per_round && guard < writes_per_round * 50 {
                guard += 1;
                let w = generator.next_write();
                let Err(at) = seen_writers.binary_search(&w.client) else {
                    continue;
                };
                seen_writers.insert(at, w.client);
                batch.push((w.client, w.spec));
            }
            let r = generator.next_read();
            batch.push((r.client, r.spec));
            issued += batch.len();
            for (client, spec) in batch.drain(..) {
                cluster.invoke_at(now, client, spec);
            }
            cluster.run_until_quiescent();
        }
        let history = cluster.take_history();
        let report = DriverReport {
            issued,
            completed: completed(&history),
            rounds,
            duration: cluster.now().saturating_sub(start),
        };
        (history, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;
    use snow_checker::{check_auto, StreamChecker, StreamLane};
    use snow_core::SystemConfig;
    use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
    use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule, Topology};
    use std::sync::Arc;

    #[test]
    fn driver_completes_everything_it_issues() {
        let config = SystemConfig::mwmr(4, 2, 2);
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Eiger] {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed: 1, min: 1, max: 20 })
                .build()
                .unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (history, report) =
                WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 60);
            assert_eq!(report.issued, 60, "{protocol:?}");
            assert_eq!(report.completed, 60, "{protocol:?}");
            assert_eq!(history.incomplete_count(), 0, "{protocol:?}");
            assert!(report.rounds >= 15, "{protocol:?}");
            assert!(report.duration > 0);
        }
    }

    #[test]
    fn read_probe_issues_reads_under_concurrent_writes() {
        let config = SystemConfig::mwmr(4, 3, 1);
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
            .scheduler(SchedulerKind::Latency { seed: 3, min: 1, max: 10 })
            .build()
            .unwrap();
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (history, report) =
            WorkloadDriver::default().run_read_probe(cluster.as_mut(), &mut generator, 10, 3);
        assert_eq!(report.completed, report.issued);
        assert_eq!(history.reads().count(), 10);
        assert!(history.writes().count() >= 20);
    }

    #[test]
    fn run_checked_verifies_the_full_history() {
        let config = SystemConfig::mwmr(4, 2, 2);
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking] {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed: 5, min: 1, max: 15 })
                .build()
                .unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (history, report, verdict) = WorkloadDriver::new(4).run_checked_mode(
                cluster.as_mut(),
                &mut generator,
                40,
                CheckMode::Streaming,
            );
            assert_eq!(report.completed, 40, "{protocol:?}");
            assert!(
                verdict.is_serializable(),
                "{protocol:?} produced a non-serializable history: {verdict:?} \
                 over {} transactions",
                history.len()
            );
        }
    }

    #[test]
    fn paced_driver_completes_everything_with_one_outstanding_per_client() {
        let config = SystemConfig::mwmr(4, 2, 2);
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Eiger] {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed: 1, min: 1, max: 20 })
                .build()
                .unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (history, report) =
                WorkloadDriver::new(4).run_paced(cluster.as_mut(), &mut generator, 60);
            assert_eq!(report.issued, 60, "{protocol:?}");
            assert_eq!(report.completed, 60, "{protocol:?}");
            assert_eq!(history.incomplete_count(), 0, "{protocol:?}");
            // Per-client well-formedness: no client ever has two
            // transactions outstanding at once.
            for client in history.records.iter().map(|r| r.client) {
                let mut intervals: Vec<(u64, u64)> = history
                    .records
                    .iter()
                    .filter(|r| r.client == client)
                    .map(|r| (r.invoked_at, r.responded_at.unwrap()))
                    .collect();
                intervals.sort();
                assert!(
                    intervals.windows(2).all(|w| w[0].1 <= w[1].0),
                    "{protocol:?}: client {client:?} overlapped its own transactions"
                );
            }
            // The protocols that claim S are certified like any other driven
            // history.  Eiger is not S (paper §6, Fig. 5;
            // `snow_impossibility::eiger_fig5`): whether these 60
            // transactions happen to show it depends on the latency stream —
            // one stream passes, another is convicted on a precedence cycle —
            // so neither outcome is asserted for it.
            if protocol != ProtocolKind::Eiger {
                assert!(check_auto(&history).is_serializable(), "{protocol:?}");
            }
        }
    }

    /// Determinism regression for the paced driver: identical seeds must
    /// produce byte-identical histories.
    #[test]
    fn paced_driver_is_deterministic() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let spec = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .scheduler(SchedulerKind::Latency { seed: 17, min: 1, max: 18 });
        let run = || {
            let mut cluster = spec.build().unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (history, report) =
                WorkloadDriver::new(4).run_paced(cluster.as_mut(), &mut generator, 50);
            (format!("{history:?}"), report.rounds)
        };
        let (first, waves) = run();
        assert_eq!(first, run().0, "paced run not reproducible");
        // Pacing genuinely decouples clients from the round barrier: more
        // completion waves than the 13 global rounds `run` would take.
        assert!(waves > 13, "only {waves} waves — still running in lockstep rounds?");
    }

    /// `run_paced` as it was before the completion handshake: after every
    /// wait, sweep `active` with `is_complete` and free every client whose
    /// transaction finished.  Kept as the reference the handshake must equal.
    fn paced_by_sweep(
        window: usize,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
    ) -> (History, usize) {
        let mut queues: BTreeMap<ClientId, VecDeque<TxSpec>> = BTreeMap::new();
        for _ in 0..total {
            let tx = generator.next_tx();
            queues.entry(tx.client).or_default().push_back(tx.spec);
        }
        let mut rotation: VecDeque<ClientId> = queues.keys().copied().collect();
        let mut active: Vec<(TxId, ClientId)> = Vec::new();
        let mut waves = 0usize;
        loop {
            while active.len() < window {
                let Some(client) = rotation.pop_front() else { break };
                let Some(spec) = queues.get_mut(&client).and_then(|q| q.pop_front()) else {
                    continue;
                };
                active.push((cluster.invoke_at(cluster.now(), client, spec), client));
            }
            let watch: Vec<TxId> = active.iter().map(|&(tx, _)| tx).collect();
            if cluster.run_until_any_complete(&watch).is_none() {
                break;
            }
            waves += 1;
            let mut i = 0;
            while i < active.len() {
                if cluster.is_complete(active[i].0) {
                    let (_, client) = active.swap_remove(i);
                    if queues.get(&client).is_some_and(|q| !q.is_empty()) {
                        rotation.push_back(client);
                    }
                } else {
                    i += 1;
                }
            }
        }
        (cluster.take_history(), waves)
    }

    /// Where one wait retires several watched transactions — a fault
    /// quiescence aborting every orphan — the handshake
    /// frees them in sweep order before refilling anything, so histories
    /// and the wave count equal the sweep's.  (Freeing one per wait and
    /// refilling in between reorders `active` and moves `TxId`s.)
    #[test]
    fn paced_handshake_equals_the_sweep_when_completions_coincide() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let (any, forever) = (EndpointSel::Any, u64::MAX);
        let lossy = FaultSchedule::new(0xABCC).with_region(FaultRegion {
            chance_pct: 5,
            ..FaultRegion::always(FaultAction::Drop, any, any, 0, forever)
        });
        let base = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .scheduler(SchedulerKind::Latency { seed: 1, min: 1, max: 16 });
        let spec = base.faults(lossy);
        let generator = || WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (expected, expected_waves) =
            paced_by_sweep(4, spec.build().unwrap().as_mut(), &mut generator(), 300);
        let (history, report) =
            WorkloadDriver::new(4).run_paced(spec.build().unwrap().as_mut(), &mut generator(), 300);
        assert_eq!(report.issued, 300);
        assert!(report.rounds < 300, "no wait retired two transactions");
        assert_eq!(report.rounds, expected_waves);
        assert_eq!(format!("{history:?}"), format!("{expected:?}"));
    }

    /// The streaming check drives the same run as the unchecked driver, and
    /// agrees with `check_auto` on the finished history.  On the tagged
    /// family the tag order certifies it, so the stream returns
    /// `check_auto`'s verdict, witness included.  On the untagged protocols
    /// both run the semantic stream engine: both certify Blocking, and
    /// both convict Eiger and Simple.
    #[test]
    fn streaming_check_mode_agrees_with_post_hoc() {
        let sched = SchedulerKind::Latency { seed: 5, min: 1, max: 15 };
        for protocol in [
            ProtocolKind::AlgA,
            ProtocolKind::AlgB,
            ProtocolKind::AlgC,
            ProtocolKind::Blocking,
            ProtocolKind::Eiger,
            ProtocolKind::Simple,
        ] {
            // Algorithm A runs MWSR, with client-to-client messages.
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(3, 3, true)
            } else {
                SystemConfig::mwmr(4, 2, 2)
            };
            let spec = ClusterSpec::new(protocol, &config).scheduler(sched);
            let generator = || WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (history, _) =
                WorkloadDriver::new(4).run(spec.build().unwrap().as_mut(), &mut generator(), 40);
            let posthoc = check_auto(&history);
            let (stream_history, report, stream) = WorkloadDriver::new(4).run_checked_mode(
                spec.build().unwrap().as_mut(),
                &mut generator(),
                40,
                CheckMode::Streaming,
            );
            assert_eq!(
                format!("{history:?}"),
                format!("{stream_history:?}"),
                "{protocol:?}: the check changed the run"
            );
            assert_eq!(report.completed, 40);
            // Eiger and Simple are convicted by both on this run; the
            // other four are certified by both.
            if matches!(protocol, ProtocolKind::Eiger | ProtocolKind::Simple) {
                assert!(posthoc.is_violation(), "{protocol:?}: post-hoc {posthoc:?}");
                assert!(stream.is_violation(), "{protocol:?}: stream {stream:?}");
            } else {
                assert!(posthoc.is_serializable(), "{protocol:?}: post-hoc {posthoc:?}");
                assert!(stream.is_serializable(), "{protocol:?}: stream {stream:?}");
            }
            if matches!(protocol, ProtocolKind::AlgA | ProtocolKind::AlgB | ProtocolKind::AlgC) {
                assert_eq!(stream, posthoc, "{protocol:?}");
            }
        }
    }

    /// `run_checked_mode(.., Streaming)`'s steps on a cluster built from
    /// `spec`, with the stream handed back unfinished so a test can see the
    /// lane it ran on.
    fn streamed(
        spec: &ClusterSpec,
        config: &SystemConfig,
        per_round: usize,
        total: usize,
    ) -> (History, TagOrderStream) {
        let mut cluster = spec.build().unwrap();
        let mut generator = WorkloadGenerator::new(config, WorkloadSpec::write_heavy());
        let (mut stream, mut ids) = (TagOrderStream::new(), Vec::new());
        let (history, _) = WorkloadDriver::new(per_round).run_tapped(
            cluster.as_mut(),
            &mut generator,
            total,
            &mut |cluster| drain_into(&mut stream, &mut ids, cluster),
        );
        (history, stream)
    }

    /// An untagged protocol gives up the tag order at its first commit,
    /// before anything is certified, so its streaming run is checked
    /// exactly as a `StreamChecker` fed the same drains checks it —
    /// conviction message and all.
    #[test]
    fn untagged_runs_are_checked_by_the_semantic_stream_engine_alone() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let sched = SchedulerKind::Latency { seed: 5, min: 1, max: 15 };
        for protocol in [ProtocolKind::Blocking, ProtocolKind::Eiger] {
            let spec = ClusterSpec::new(protocol, &config).scheduler(sched);
            let (history, stream) = streamed(&spec, &config, 4, 120);
            assert_eq!(stream.lane(), StreamLane::Semantic, "{protocol:?}");
            let verdict = stream.finish(&history);

            let mut cluster = spec.build().unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let mut checker = StreamChecker::new();
            let (alone, _) =
                WorkloadDriver::new(4).run_tapped(cluster.as_mut(), &mut generator, 120, &mut |c| {
                    let drain = c.drain_commits();
                    for rec in drain.records {
                        checker.ingest(rec);
                    }
                    checker.advance_watermark(drain.inv_floor);
                });
            assert_eq!(format!("{history:?}"), format!("{alone:?}"), "{protocol:?}");
            for rec in alone.records.iter().filter(|r| !r.is_complete()) {
                checker.ingest_incomplete(rec.clone());
            }
            assert_eq!(verdict, checker.finish(), "{protocol:?}");
        }
    }

    /// AlgB on the three-site WAN with `faults`, in rounds of 8.
    fn algb_on_the_wan(faults: FaultSchedule, total: usize) -> (History, TagOrderStream) {
        let config = SystemConfig::mwmr(8, 4, 4);
        let spec = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .topology(Arc::new(Topology::wan3(&config)), 7)
            .max_steps(u64::MAX)
            .faults(faults);
        streamed(&spec, &config, 8, total)
    }

    /// `chance_pct` % of the messages of every link, for the whole run.
    fn everywhere(action: FaultAction, chance_pct: u8) -> FaultSchedule {
        FaultSchedule::new(7).with_region(FaultRegion {
            chance_pct,
            ..FaultRegion::always(action, EndpointSel::Any, EndpointSel::Any, 0, u64::MAX)
        })
    }

    /// Duplicated messages no longer break AlgB's tags (a duplicated
    /// `get-tag-arr` once handed a reader a second tag array): at 5 %
    /// duplication on every link the tag order certifies the whole run as
    /// it commits, with `check_auto`'s verdict, witness included.
    #[test]
    fn duplication_leaves_algb_certified_by_tag_order() {
        let (history, stream) = algb_on_the_wan(everywhere(FaultAction::Duplicate, 5), 2_000);
        assert_eq!((stream.lane(), stream.certified() > 1_900), (StreamLane::TagOrder, true));
        let verdict = stream.finish(&history);
        assert!(verdict.is_serializable(), "{verdict:?}");
        assert_eq!(verdict, check_auto(&history));
    }

    /// Drops break AlgB's tags after the stream has certified a prefix (a
    /// READ of a WRITE retired `Aborted`, ROADMAP item 1): the stream
    /// defers, and its verdict takes the category the semantic stream
    /// engine gives the whole history — a conviction, today.
    #[test]
    fn under_drops_streaming_defers_to_the_semantic_engines_category() {
        let (history, stream) = algb_on_the_wan(everywhere(FaultAction::Drop, 1), 2_000);
        assert_eq!(stream.lane(), StreamLane::Deferred);
        let verdict = stream.finish(&history);
        assert_eq!(
            std::mem::discriminant(&verdict),
            std::mem::discriminant(&StreamChecker::check(&history)),
            "{verdict:?}"
        );
    }

    #[test]
    fn driver_works_for_algorithm_a_mwsr() {
        let config = SystemConfig::mwsr(3, 3, true);
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgA, &config)
            .scheduler(SchedulerKind::Random(5))
            .build()
            .unwrap();
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::uniform_read_mostly());
        let (history, report) = WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 40);
        assert_eq!(report.completed, 40);
        assert_eq!(history.incomplete_count(), 0);
    }
}
