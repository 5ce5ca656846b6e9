//! Drives a generated workload against any [`Cluster`], and the two loops
//! every driver in the crate runs on.
//!
//! * The **round loop** ([`WorkloadDriver::run`], `run_checked_mode`,
//!   `run_read_probe`, and `crate::scenario::run_scenario`): each round a
//!   shape draws at most one transaction per client, the batch is invoked
//!   at the settled clock, and the cluster runs until quiescent.
//!   Within a round the transactions are concurrent (the scheduler
//!   interleaves their messages arbitrarily); across rounds the per-client
//!   well-formedness requirement of the model (one outstanding transaction
//!   per client) is preserved by construction.  Each round waits for the
//!   previous one, so the offered load adapts to completions and latency
//!   can never reveal saturation.
//! * The **completion loop** ([`WorkloadDriver::run_paced`] and
//!   `crate::open_loop::drive_open_loop`): a plan of
//!   [`Arrival`]s in per-client FIFO queues, at most `window` clients
//!   outstanding, and the next transaction due the moment a client frees.
//!   The open loop's arrivals carry their Poisson times and its window is
//!   every client; a paced run is the plan with every arrival at time 0 and
//!   `per_round` as the window, so each client's next transaction is due
//!   when its previous one returns.
//!
//! Both loops call one tap after each wait, the hook the one check path
//! (`checked`) drains commits into a [`TagOrderStream`] with.

use crate::generator::{GeneratedTx, WorkloadGenerator};
use crate::open_loop::Arrival;
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
    /// Number of rounds driven.  For a paced run ([`WorkloadDriver::run_paced`]),
    /// the number of waves: virtual instants at which at least one
    /// transaction retired — one per transaction on a fault-free run, fewer
    /// where a fault quiescence retires several at once.
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
    /// keeps it; no record is copied.  A tagged run (Algorithms A, B and
    /// C) is certified by Lemma 20's tag order as it commits: the stream
    /// holds a rank per uncertified commit and reads the record back from
    /// the cluster at certification.  When tags cannot decide (an untagged
    /// protocol, or tags a fault broke) the stream stops, and the verdict
    /// is [`snow_checker::StreamChecker::check`] on the taken history.
    /// Either way it is `check_auto`'s verdict on that history, witness
    /// included.
    #[default]
    Streaming,
}

/// The hook both loops call after each wait settles, before the history is
/// taken: the check path drains commits here.
pub(crate) type Tap<'a> = dyn FnMut(&mut dyn Cluster) + 'a;

/// One round's transactions, in invocation order.
pub(crate) type Batch = Vec<(ClientId, TxSpec)>;

/// Ingests one commit drain into a streaming checker, by reference: the
/// drained commits in RESP order, each read where the cluster keeps it,
/// then the drain's invocation floor as the new frontier watermark, with
/// the cluster as the record source certification reads back from.  A
/// record is final at its RESP (`open_loop`'s
/// `drained_records_equal_the_final_history` pins it), so what the checker
/// reads mid-run is what the taken history ends with.  `ids` is the
/// drain's reused buffer.
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
    checker.advance_watermark(inv_floor, |tx| cluster.record(tx));
}

/// The one check path: runs `drive` with a tap that drains every commit
/// into a [`TagOrderStream`], then finishes the stream over the taken
/// history.
pub(crate) fn checked<R>(drive: impl FnOnce(&mut Tap) -> (History, R)) -> (History, R, Verdict) {
    let (mut checker, mut ids) = (TagOrderStream::new(), Vec::new());
    let (history, report) = drive(&mut |cluster| drain_into(&mut checker, &mut ids, cluster));
    let verdict = checker.finish(&history);
    (history, report, verdict)
}

/// The clients of one round, as a bitset: bit `c % 64` of word `c / 64`
/// for client `c`.  It grows to cover the largest id it has held and keeps
/// its words across rounds.
#[derive(Debug, Default)]
pub(crate) struct ClientSet {
    words: Vec<u64>,
}

impl ClientSet {
    /// Empties the set, keeping its words.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds `client`; `true` if it was not in the set.
    #[inline]
    pub(crate) fn insert(&mut self, client: ClientId) -> bool {
        let (word, bit) = (client.0 as usize / 64, 1u64 << (client.0 % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }
}

/// Draws from `next` until `batch` holds `want` transactions of distinct
/// clients or `draws` draws are spent, discarding a draw whose client is
/// already in `seen` (the batch's clients).
pub(crate) fn draw_distinct(
    seen: &mut ClientSet,
    batch: &mut Batch,
    want: usize,
    draws: usize,
    mut next: impl FnMut() -> GeneratedTx,
) {
    for _ in 0..draws {
        if batch.len() >= want {
            break;
        }
        let tx = next();
        if seen.insert(tx.client) {
            batch.push((tx.client, tx.spec));
        }
    }
}

/// The round loop.  Sizes the record log for `planned` transactions, then,
/// for at most `rounds` rounds: `draw` fills the batch (its clients in
/// `seen`; the batch holds `width`, and both are reused across rounds),
/// the batch is invoked at the settled clock — `spacing` ticks
/// apart after it, so 0 invokes the whole round at `now` — the cluster runs
/// until quiescent, and `tap` sees it.  A draw that leaves the batch empty
/// ends the run.  The last round's tap is the last call before the take,
/// so a draining tap has seen every commit the taken history holds.
pub(crate) fn round_loop(
    cluster: &mut dyn Cluster,
    planned: usize,
    rounds: usize,
    width: usize,
    spacing: u64,
    draw: &mut dyn FnMut(&mut ClientSet, &mut Batch),
    tap: &mut Tap,
) -> (History, DriverReport) {
    let start = cluster.now();
    cluster.reserve(planned);
    let mut seen = ClientSet::default();
    let mut batch: Batch = Vec::with_capacity(width);
    let (mut issued, mut driven) = (0, 0);
    while driven < rounds {
        seen.clear();
        draw(&mut seen, &mut batch);
        if batch.is_empty() {
            break;
        }
        driven += 1;
        issued += batch.len();
        let mut at = cluster.now();
        for (client, spec) in batch.drain(..) {
            at += spacing;
            cluster.invoke_at(at, client, spec);
        }
        cluster.run_until_quiescent();
        tap(cluster);
    }
    let history = cluster.take_history();
    let completed = history.records.iter().filter(|rec| rec.is_complete()).count();
    let duration = cluster.now().saturating_sub(start);
    (history, DriverReport { issued, completed, rounds: driven, duration })
}

/// The planned time of each invocation a completion loop made, by its id's
/// offset from the first: the cluster numbers invocations densely, in order.
pub(crate) struct PlannedTimes {
    first: Option<u64>,
    at: Vec<u64>,
}

impl PlannedTimes {
    fn push(&mut self, tx: TxId, at: u64) {
        let first = *self.first.get_or_insert(tx.0);
        assert_eq!(tx.0 - first, self.at.len() as u64, "ids are dense, in invocation order");
        self.at.push(at);
    }

    /// The planned time of `tx`, if the loop invoked it.
    pub(crate) fn of(&self, tx: TxId) -> Option<u64> {
        let offset = tx.0.checked_sub(self.first?)?;
        self.at.get(usize::try_from(offset).ok()?).copied()
    }
}

/// The completion loop.  Queues `plan` per client, FIFO, and sizes the
/// record log for it; starts the first `window` clients (in client order)
/// on their first transaction and keeps the rest in a rotation.  Then, one
/// [`Cluster::run_until_any_complete`] per transaction: the cluster names
/// the watched transaction that completed (the first complete one in
/// `active` order), `tap` sees it, its client rejoins the back of the
/// rotation, and the front of the rotation refills the freed slot in place
/// — a client with no work left drops out when it reaches the front, and
/// the slot is removed when none is left.  When a fault quiescence retires
/// several at once the next calls hand the rest back, in `active` order,
/// before the clock moves.  Ends when nothing is outstanding or the cluster
/// stalls with watched work that can never finish, with one more tap.
pub(crate) fn completion_loop(
    cluster: &mut dyn Cluster,
    plan: impl IntoIterator<Item = Arrival>,
    window: usize,
    tap: &mut Tap,
) -> (History, DriverReport, PlannedTimes) {
    let mut queues: BTreeMap<ClientId, VecDeque<(u64, TxSpec)>> = BTreeMap::new();
    for Arrival { at, client, spec } in plan {
        queues.entry(client).or_default().push_back((at, spec));
    }
    let issued = queues.values().map(VecDeque::len).sum();
    let start = cluster.now();
    cluster.reserve(issued);
    let mut rotation: VecDeque<ClientId> = queues.keys().copied().collect();
    let mut planned = PlannedTimes { first: None, at: Vec::with_capacity(issued) };
    // Invokes the next transaction of the first client in the rotation
    // that has one.
    let mut next = |cluster: &mut dyn Cluster, rotation: &mut VecDeque<ClientId>| {
        let (client, (at, spec)) = std::iter::from_fn(|| rotation.pop_front())
            .find_map(|client| Some((client, queues.get_mut(&client)?.pop_front()?)))?;
        let tx = cluster.invoke_at(at, client, spec);
        planned.push(tx, at);
        Some(tx)
    };
    let mut active: Vec<TxId> = Vec::with_capacity(window.min(rotation.len()));
    while active.len() < window {
        let Some(tx) = next(cluster, &mut rotation) else { break };
        active.push(tx);
    }
    let (mut waves, mut last_wave) = (0, None);
    while let Some(done) = cluster.run_until_any_complete(&active) {
        tap(cluster);
        if last_wave != Some(cluster.now()) {
            (waves, last_wave) = (waves + 1, Some(cluster.now()));
        }
        let slot = active
            .iter()
            .position(|&tx| tx == done)
            .expect("the cluster returns a member of the watch list");
        let client = cluster.record(done).expect("a completed transaction has a record").client;
        rotation.push_back(client);
        match next(cluster, &mut rotation) {
            Some(tx) => active[slot] = tx,
            None => {
                active.remove(slot);
            }
        }
    }
    // The last wait may have committed (or, under faults, retired) what no
    // tap has seen yet; the take empties the commit log.
    tap(cluster);
    let history = cluster.take_history();
    let report = DriverReport {
        issued,
        completed: issued - active.len(),
        rounds: waves,
        duration: cluster.now().saturating_sub(start),
    };
    (history, report, planned)
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

    /// [`WorkloadDriver::run`]'s plan on the round loop, with `tap` after
    /// each round: each round draws until it holds `per_round` transactions
    /// (fewer in the last) of distinct clients, a client getting at most
    /// one per round to stay well-formed, giving up after 50 draws per
    /// transaction; all of a round is invoked at `now`.
    fn run_tapped(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        total: usize,
        tap: &mut Tap,
    ) -> (History, DriverReport) {
        let mut left = total;
        let mut draw = |seen: &mut ClientSet, batch: &mut Batch| {
            let want = self.per_round.min(left);
            draw_distinct(seen, batch, want, want * 50, || generator.next_tx());
            left -= batch.len();
        };
        round_loop(cluster, total, usize::MAX, self.per_round, 0, &mut draw, tap)
    }

    /// Runs `total` transactions with **per-client pacing**: up to
    /// `per_round` clients each keep exactly one transaction outstanding,
    /// and a client's next transaction is injected the moment its previous
    /// one completes — instead of the whole round waiting for its slowest
    /// member.  The plan is drawn from the generator up front, every
    /// arrival at time 0, and run on the completion loop (the open loop's),
    /// so each client runs its own transactions in draw order and the one-
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
        let plan = (0..total).map(|_| {
            let tx = generator.next_tx();
            Arrival { at: 0, client: tx.client, spec: tx.spec }
        });
        let (history, report, _) =
            completion_loop(cluster, plan, self.per_round.max(1), &mut |_| {});
        (history, report)
    }

    /// [`WorkloadDriver::run`] plus a strict-serializability verdict over
    /// the whole driven history — not a sample — so every workload run is
    /// verifiable end to end.
    ///
    /// The check streams ([`CheckMode::Streaming`], the only mode): after
    /// every round the cluster's commit drain is fed, by reference, to a
    /// [`TagOrderStream`], which certifies a tagged run by tag order as it
    /// commits.  On an untagged or tag-breaking run it stops, and the
    /// semantic stream engine checks the finished history.
    ///
    /// The verdict is [`snow_checker::check_auto`]'s on the finished
    /// history, witness included, for every protocol.
    /// `streaming_check_mode_agrees_with_post_hoc` runs all six protocols
    /// once each (40 transactions): equal verdicts, which certify A, B, C
    /// and Blocking and convict Eiger and Simple.
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
        checked(|tap| self.run_tapped(cluster, generator, total, tap))
    }

    /// Runs a read-latency probe: `writes_per_round` WRITEs and one READ are
    /// issued concurrently each round, `rounds` times.  This is the shape
    /// used by the latency tables (reads under conflicting writes).  Each
    /// round draws WRITEs of distinct writers (50 draws per WRITE at most),
    /// then one READ.
    pub fn run_read_probe(
        &self,
        cluster: &mut dyn Cluster,
        generator: &mut WorkloadGenerator,
        rounds: usize,
        writes_per_round: usize,
    ) -> (History, DriverReport) {
        let w = writes_per_round;
        let mut draw = |seen: &mut ClientSet, batch: &mut Batch| {
            draw_distinct(seen, batch, w, w * 50, || generator.next_write());
            let read = generator.next_read();
            batch.push((read.client, read.spec));
        };
        round_loop(cluster, rounds * (w + 1), rounds, w + 1, 0, &mut draw, &mut |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;
    use crate::open_loop::{arrival_schedule, drive_open_loop, OpenLoopSpec};
    use snow_checker::{check_auto, StreamChecker, StreamLane};
    use snow_core::hash::SplitMix;
    use snow_core::{ObjectId, ReadSpec, SystemConfig};
    use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
    use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule, Topology};
    use std::cell::Cell;
    use std::sync::Arc;

    /// Over 130 clients (three words of the set), in two rounds on one
    /// reused set, `draw_distinct` keeps each client's first draw of the
    /// round, in draw order, as the sorted client list it replaced did
    /// (the model below).
    #[test]
    fn draw_distinct_keeps_each_clients_first_draw() {
        let mut rng = SplitMix::new(130);
        let (mut seen, mut batch) = (ClientSet::default(), Batch::new());
        for want in [130, 64] {
            let draws: Vec<ClientId> =
                (0..1_000).map(|_| ClientId(rng.below(130) as u32)).collect();
            let (mut sorted, mut model) = (Vec::new(), Vec::new());
            for (i, &client) in draws.iter().enumerate() {
                if model.len() >= want {
                    break;
                }
                if let Err(at) = sorted.binary_search(&client) {
                    sorted.insert(at, client);
                    model.push((client, ObjectId(i as u32)));
                }
            }
            let mut next = draws.iter().enumerate().map(|(i, &client)| GeneratedTx {
                client,
                spec: TxSpec::Read(ReadSpec::new(&[ObjectId(i as u32)][..])),
            });
            seen.clear();
            draw_distinct(&mut seen, &mut batch, want, draws.len(), || next.next().unwrap());
            let kept: Vec<(ClientId, ObjectId)> = batch
                .drain(..)
                .map(|(client, spec)| (client, spec.objects_iter().next().unwrap()))
                .collect();
            assert_eq!(kept, model, "want {want}");
        }
    }

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

    /// The completion loop's refill rule written as a sweep, the reference
    /// the handshake must equal: after each wait, visit `active` in order,
    /// and free each complete member — its client rejoins the back of the
    /// rotation if it has work — and refill that slot in place from the
    /// front of the rotation (or remove it) before looking at the next
    /// member.  Returns the history and the waves: the distinct instants at
    /// which a wait returned.
    fn by_sweep(cluster: &mut dyn Cluster, plan: Vec<Arrival>, window: usize) -> (History, usize) {
        type Queues = BTreeMap<ClientId, VecDeque<(u64, TxSpec)>>;
        fn invoke_next(
            cluster: &mut dyn Cluster,
            queues: &mut Queues,
            rotation: &mut VecDeque<ClientId>,
        ) -> Option<(TxId, ClientId)> {
            let client = rotation.pop_front()?;
            let (at, spec) = queues.get_mut(&client)?.pop_front()?;
            Some((cluster.invoke_at(at, client, spec), client))
        }
        let mut queues = Queues::new();
        for Arrival { at, client, spec } in plan {
            queues.entry(client).or_default().push_back((at, spec));
        }
        let mut rotation: VecDeque<ClientId> = queues.keys().copied().collect();
        let mut active: Vec<(TxId, ClientId)> = Vec::new();
        while active.len() < window {
            let Some(entry) = invoke_next(cluster, &mut queues, &mut rotation) else { break };
            active.push(entry);
        }
        let mut instants = Vec::new();
        loop {
            let watch: Vec<TxId> = active.iter().map(|&(tx, _)| tx).collect();
            if cluster.run_until_any_complete(&watch).is_none() {
                break;
            }
            instants.push(cluster.now());
            let mut i = 0;
            while i < active.len() {
                if !cluster.is_complete(active[i].0) {
                    i += 1;
                    continue;
                }
                let client = active[i].1;
                if queues.get(&client).is_some_and(|q| !q.is_empty()) {
                    rotation.push_back(client);
                }
                match invoke_next(cluster, &mut queues, &mut rotation) {
                    Some(entry) => {
                        active[i] = entry;
                        i += 1;
                    }
                    None => {
                        active.remove(i);
                    }
                }
            }
        }
        instants.dedup();
        (cluster.take_history(), instants.len())
    }

    /// A paced run's plan: `total` draws, every arrival at time 0.
    fn paced_plan(generator: &mut WorkloadGenerator, total: usize) -> Vec<Arrival> {
        let arrival = |tx: GeneratedTx| Arrival { at: 0, client: tx.client, spec: tx.spec };
        (0..total).map(|_| arrival(generator.next_tx())).collect()
    }

    /// Where one wait retires several watched transactions — a fault
    /// quiescence aborting every orphan — the handshake hands them back
    /// one per wait, and each freed slot is refilled in place before the
    /// next is freed, so histories and the wave count equal the sweep's:
    /// with a window of every client, with a window smaller than the
    /// client count, and on the open loop under 1 % drop.
    #[test]
    fn paced_handshake_equals_the_sweep_when_completions_coincide() {
        let (any, forever) = (EndpointSel::Any, u64::MAX);
        let drops = |seed, chance_pct| {
            FaultSchedule::new(seed).with_region(FaultRegion {
                chance_pct,
                ..FaultRegion::always(FaultAction::Drop, any, any, 0, forever)
            })
        };
        for config in [SystemConfig::mwmr(4, 2, 2), SystemConfig::mwmr(4, 3, 3)] {
            let spec = ClusterSpec::new(ProtocolKind::AlgB, &config)
                .scheduler(SchedulerKind::Latency { seed: 1, min: 1, max: 16 })
                .faults(drops(0xABCC, 5));
            let generator = || WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let plan = paced_plan(&mut generator(), 300);
            let (expected, expected_waves) = by_sweep(spec.build().unwrap().as_mut(), plan, 4);
            let (history, report) = WorkloadDriver::new(4).run_paced(
                spec.build().unwrap().as_mut(),
                &mut generator(),
                300,
            );
            let clients = config.num_clients();
            assert_eq!(report.issued, 300, "{clients} clients");
            assert!(report.rounds < 300, "{clients} clients: no wait retired two transactions");
            assert_eq!(report.rounds, expected_waves, "{clients} clients");
            assert_eq!(format!("{history:?}"), format!("{expected:?}"), "{clients} clients");
        }

        let config = SystemConfig::mwmr(4, 4, 4);
        let spec = OpenLoopSpec { arrivals: 1_000, ..OpenLoopSpec::tao_like(100) };
        let cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
            .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
            .max_steps(u64::MAX)
            .faults(drops(9, 1));
        let plan = arrival_schedule(&config, &spec);
        let (expected, waves) = by_sweep(cluster.build().unwrap().as_mut(), plan, usize::MAX);
        let (history, report) = drive_open_loop(cluster.build().unwrap().as_mut(), &config, &spec);
        assert_eq!((report.issued, report.completed), (1_000, 1_000));
        assert!(waves < 1_000, "open loop: no wait retired two transactions");
        assert_eq!(format!("{history:?}"), format!("{expected:?}"), "open loop");
    }

    /// The streaming check drives the same run as the unchecked driver, and
    /// returns `check_auto`'s verdict on the finished history, witness
    /// included: by tag order on the tagged family, by the semantic stream
    /// engine on the untagged protocols.  Both certify Blocking, and both
    /// convict Eiger and Simple.
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
            assert_eq!(stream, posthoc, "{protocol:?}");
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

    /// An untagged protocol gives up the tag order at its first commit:
    /// the stream reads no record back from the cluster, and its verdict is
    /// `StreamChecker::check` on the taken history, conviction message and
    /// all.
    #[test]
    fn untagged_runs_read_nothing_back_and_take_the_semantic_engines_verdict() {
        let config = SystemConfig::mwmr(4, 2, 2);
        let sched = SchedulerKind::Latency { seed: 5, min: 1, max: 15 };
        for protocol in [ProtocolKind::Blocking, ProtocolKind::Eiger] {
            let mut cluster = ClusterSpec::new(protocol, &config).scheduler(sched).build().unwrap();
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
            let (mut stream, mut ids, reads) = (TagOrderStream::new(), Vec::new(), Cell::new(0));
            // `drain_into`, with the watermark's record source counted.
            let mut tap = |cluster: &mut dyn Cluster| {
                let inv_floor = cluster.drain_commit_ids(&mut ids);
                let cluster: &dyn Cluster = cluster;
                for &tx in &ids {
                    stream.ingest(cluster.record(tx).unwrap());
                }
                stream.advance_watermark(inv_floor, |tx| {
                    reads.set(reads.get() + 1);
                    cluster.record(tx)
                });
            };
            let (history, _) =
                WorkloadDriver::new(4).run_tapped(cluster.as_mut(), &mut generator, 120, &mut tap);
            assert_eq!((stream.lane(), reads.get()), (StreamLane::Deferred, 0), "{protocol:?}");
            assert_eq!(stream.finish(&history), StreamChecker::check(&history), "{protocol:?}");
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
    /// defers, and its verdict is the semantic stream engine's on the whole
    /// history — a conviction, today.
    #[test]
    fn under_drops_streaming_defers_to_the_semantic_engines_category() {
        let (history, stream) = algb_on_the_wan(everywhere(FaultAction::Drop, 1), 2_000);
        assert_eq!(stream.lane(), StreamLane::Deferred);
        let verdict = stream.finish(&history);
        assert_eq!(verdict, StreamChecker::check(&history));
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
