//! Golden-history fixtures: seeded determinism across engine refactors.
//!
//! The simulator promises that a run is a pure function of
//! `(protocol, scheduler, seeds, fault schedule)`.  This module pins that
//! promise down.  A [`Combo`] is one protocol under one schedule, with or
//! without a fault schedule, and [`Combo::run`] is the one runner: it
//! builds the combo's cluster, drives the pinned workload through
//! `WorkloadDriver` and returns the [`Run`] — history, driver report,
//! final clock and drained events.  Everything else is a view of it:
//!
//! * [`Combo::render`] / [`Combo::canonical`]: the canonical text, the full
//!   `Debug` form of every record plus the final clock (and, under faults,
//!   the aborted count), whose FNV-1a [`fingerprint`] the fixtures pin;
//! * [`fixture_file`]: `tests/golden_histories.txt` over the 30 clean
//!   [`combos`], or `tests/golden_fault_histories.txt` over the 15
//!   [`fault_combos`] — which `tests/determinism.rs` and
//!   `tests/fault_determinism.rs` compare line for line, so an engine
//!   change that silently perturbs schedules fails loudly;
//! * the parity runs: the same combo driven one transaction at a time
//!   (`clients: 1`) or in full rounds of every client, compared across
//!   schedulers through the timing-free [`semantic_digest`] /
//!   [`instrumented_digest`] (`tests/protocol_properties.rs`).
//!
//! The fixtures were captured from the pre-event-queue (linear-scan) engine;
//! the indexed engine reproduces them bit-for-bit, which is the refactor's
//! equivalence proof.  Regenerate with
//! `cargo run -p snow-bench --release -- golden [--faults] --write`
//! (only legitimate when the schedule semantics intentionally change, or
//! the workload bodies do — they are `snow_core::hash::SplitMix` draws).

use snow_core::History;
use snow_protocols::{fault_scenarios, ClusterSpec, ProtocolKind, SchedulerKind, ShardEvent};
use snow_sim::FaultSchedule;
use snow_workload::{DriverReport, WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::fmt::Write as _;

/// One pinned execution: a protocol under a schedule, with or without
/// faults.
#[derive(Debug, Clone)]
pub struct Combo {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The delivery schedule.
    pub scheduler: SchedulerKind,
    /// The fault schedule, if any.  Under one, transactions orphaned by a
    /// crash or a partition retire as `TxOutcome::Aborted`, and the
    /// canonical text counts them.
    pub faults: Option<FaultSchedule>,
    /// Stable identifier used as the fixture key.
    pub label: String,
}

/// Transactions driven per combo.
pub const COMBO_TXNS: usize = 20;

/// The workload distribution every combo draws from.
pub const COMBO_WORKLOAD: WorkloadSpec = WorkloadSpec {
    read_fraction: 0.5,
    objects_per_read: 2,
    objects_per_write: 2,
    zipf_exponent: 0.9,
    seed: 13,
};

/// How a combo is driven: [`WorkloadDriver::run`] in rounds of `clients`
/// for `transactions`, on a cluster that records events if `observed`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Transactions per round, each from a distinct client.
    pub clients: usize,
    /// Transactions driven in all.
    pub transactions: usize,
    /// Whether the cluster records its virtual-time event stream.
    pub observed: bool,
}

/// The fixtures' shape: [`COMBO_TXNS`] transactions in rounds of 4,
/// unobserved.
pub const FIXTURE: Shape = Shape { clients: 4, transactions: COMBO_TXNS, observed: false };

/// What one combo run leaves behind.
#[derive(Debug)]
pub struct Run {
    /// The run's records.
    pub history: History,
    /// The driver's summary.
    pub report: DriverReport,
    /// The simulation clock at the end of the run.
    pub now: u64,
    /// The drained event stream (empty unless the shape was observed).
    pub events: Vec<ShardEvent>,
}

/// Every pinned clean combination: six protocols × five schedules.
pub fn combos() -> Vec<Combo> {
    let schedulers = [
        ("fifo", SchedulerKind::Fifo),
        ("random7", SchedulerKind::Random(7)),
        ("random42", SchedulerKind::Random(42)),
        ("latency7", SchedulerKind::Latency { seed: 7, min: 1, max: 20 }),
        ("latency42", SchedulerKind::Latency { seed: 42, min: 1, max: 20 }),
    ];
    let mut out = Vec::new();
    for protocol in ProtocolKind::all() {
        for (name, scheduler) in schedulers {
            let label = format!("{protocol:?}/{name}");
            out.push(Combo { protocol, scheduler, faults: None, label });
        }
    }
    out
}

/// The pinned fault matrix: every protocol under FIFO with the crash and
/// the partition scenarios, and the quorum protocols whose handlers are
/// idempotent per tag under the dup storm — on a latency schedule, so
/// duplicates genuinely race their originals.
pub fn fault_combos() -> Vec<Combo> {
    let mut out = Vec::new();
    for (scenario, schedule) in fault_scenarios() {
        let (protocols, name, scheduler) = if scenario == "dup_storm" {
            let quorum = vec![ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Simple];
            (quorum, "latency7", SchedulerKind::Latency { seed: 7, min: 1, max: 20 })
        } else {
            (ProtocolKind::all().to_vec(), "fifo", SchedulerKind::Fifo)
        };
        for protocol in protocols {
            out.push(Combo {
                protocol,
                scheduler,
                faults: Some(schedule.clone()),
                label: format!("{protocol:?}/{name}/{scenario}"),
            });
        }
    }
    out
}

impl Combo {
    /// The combo's cluster: its protocol on `protocol.config(3, 2, 2)`
    /// under its scheduler and fault schedule.
    pub fn cluster(&self) -> ClusterSpec {
        let spec = ClusterSpec::new(self.protocol, &self.protocol.config(3, 2, 2))
            .scheduler(self.scheduler);
        match &self.faults {
            Some(faults) => spec.faults(faults.clone()),
            None => spec,
        }
    }

    /// Drives [`COMBO_WORKLOAD`] against a fresh [`Combo::cluster`] in
    /// `shape`.  Panics unless every transaction retires (committed, or
    /// aborted under faults).
    pub fn run(&self, shape: Shape) -> Run {
        let spec = self.cluster().observed(shape.observed);
        let mut generator = WorkloadGenerator::new(spec.config(), COMBO_WORKLOAD);
        let mut cluster = spec.build().expect("valid combo");
        let (history, report) = WorkloadDriver::new(shape.clients).run(
            cluster.as_mut(),
            &mut generator,
            shape.transactions,
        );
        let label = &self.label;
        assert_eq!(report.completed, report.issued, "{label}: every transaction must retire");
        Run { history, report, now: cluster.now(), events: cluster.drain_obs_events() }
    }

    /// `run`'s canonical text: the full `Debug` form of every record (spec,
    /// outcome, timings, rounds, C2C, read instrumentation), then
    /// `now=<clock>`, with ` aborted=<count>` appended under faults.
    pub fn render(&self, run: &Run) -> String {
        let mut canon = String::new();
        for record in &run.history.records {
            writeln!(canon, "{record:?}").expect("string write");
        }
        write!(canon, "now={}", run.now).expect("string write");
        if self.faults.is_some() {
            let records = run.history.records.iter();
            let aborted = records.filter(|r| r.outcome.as_ref().is_some_and(|o| o.is_aborted()));
            write!(canon, " aborted={}", aborted.count()).expect("string write");
        }
        canon.push('\n');
        canon
    }

    /// The canonical text of the combo's [`FIXTURE`] run.
    pub fn canonical(&self) -> String {
        self.render(&self.run(FIXTURE))
    }
}

fn digest(history: &History, rounds: bool) -> String {
    let mut records: Vec<_> = history.records.iter().collect();
    records.sort_by_key(|r| r.tx_id);
    let mut out = String::new();
    for rec in records {
        let outcome = match &rec.outcome {
            None => "incomplete".to_string(),
            Some(outcome) => match outcome.as_read() {
                Some(read) => {
                    let mut reads = read.reads.clone();
                    reads.sort_by_key(|r| r.object);
                    format!("read tag={:?} {reads:?}", read.tag)
                }
                None => {
                    let write = outcome.as_write().expect("read or write");
                    format!("write key={:?} tag={:?}", write.key, write.tag)
                }
            },
        };
        let mut reads = rec.reads.clone();
        reads.sort_by_key(|r| (r.object, r.server, r.versions_in_response, !r.nonblocking));
        write!(
            out,
            "{} client={} spec={:?} outcome=[{outcome}] c2c={}",
            rec.tx_id, rec.client, rec.spec, rec.c2c_messages
        )
        .expect("string write");
        if rounds {
            writeln!(out, " rounds={} reads={reads:?}", rec.rounds).expect("string write");
        } else {
            // Collapse per-round duplicates (a re-read of the same object at
            // the same server with the same measurement): how *often* a
            // logical-clock protocol re-reads is schedule-dependent, what it
            // observes is not.
            reads.dedup();
            writeln!(out, " reads={reads:?}").expect("string write");
        }
    }
    out
}

/// Renders the timing- and schedule-independent semantics of a history: per
/// transaction (in id order) the client, the spec, the outcome with reads
/// sorted by object, the C2C count and the deduplicated per-read
/// measurement set (object, server, versions, non-blocking).  Two histories
/// with equal digests executed the same transactions to the same values,
/// keys, tags and measurements — regardless of scheduler or clock.  Round
/// counts are deliberately omitted: for logical-clock protocols (Eiger) the
/// *number* of rounds a READ needs depends on clock
/// values and therefore on delivery order, even for a serial run.
pub fn semantic_digest(history: &History) -> String {
    digest(history, false)
}

/// [`semantic_digest`] plus the per-transaction round counts and the raw
/// (duplicate-preserving) read-measurement list.  Use for protocols whose
/// round structure is schedule-independent (all but Eiger).
pub fn instrumented_digest(history: &History) -> String {
    digest(history, true)
}

/// 64-bit FNV-1a over the canonical text.
pub fn fingerprint(canonical: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Renders a fixture file: a two-line header, then one
/// `label ntx=<n> hash=<hex>` line per combo, sorted by label — the clean
/// [`combos`], or with `faults` the [`fault_combos`].
pub fn fixture_file(faults: bool) -> String {
    let (combos, header) = if faults {
        (
            fault_combos(),
            "# Golden fault-schedule history fingerprints per (protocol, scheduler, scenario).\n\
             # Regenerate: cargo run -p snow-bench --release -- golden --faults --write\n",
        )
    } else {
        (
            combos(),
            "# Golden history fingerprints per (protocol, scheduler, seed).\n\
             # Regenerate: cargo run -p snow-bench --release -- golden --write\n",
        )
    };
    let line = |c: &Combo| {
        format!("{} ntx={COMBO_TXNS} hash={:016x}\n", c.label, fingerprint(&c.canonical()))
    };
    let mut lines: Vec<String> = combos.iter().map(line).collect();
    lines.sort();
    header.to_string() + &lines.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_combos_are_unique_and_cover_every_scenario() {
        let combos = fault_combos();
        assert_eq!(combos.len(), 15);
        let mut labels: Vec<&str> = combos.iter().map(|c| c.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 15, "fault combo labels must be unique");
        for (name, schedule) in fault_scenarios() {
            assert!(
                combos.iter().any(|c| c.faults.as_ref() == Some(&schedule)),
                "scenario {name} must be pinned by at least one combo"
            );
        }
    }

    #[test]
    fn combos_cover_every_protocol_and_are_unique() {
        let combos = combos();
        assert_eq!(combos.len(), 30);
        let mut labels: Vec<&str> = combos.iter().map(|c| c.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 30, "combo labels must be unique");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
    }

    #[test]
    fn one_combo_is_reproducible_within_a_process() {
        let combo = &combos()[6]; // AlgB/fifo
        assert_eq!(combo.canonical(), combo.canonical());
    }
}
