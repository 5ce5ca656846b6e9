//! The scenario matrix's correctness and determinism contract.
//!
//! Five pinned properties:
//!
//! 1. **Replay** — a scenario history is a pure function of
//!    `(scenario, seed)`: two runs produce bit-identical histories,
//!    virtual timestamps included.  This is the latency scheduler's
//!    contract (latencies hashed from each send's coordinates, equal keys
//!    in send order) combined with the runner's consecutive-tick
//!    invocation rule.
//! 2. **Certification** — every cell of the matrix produces a strictly
//!    serializable history under `StreamChecker`, on every topology.  A WAN
//!    doesn't just stretch latencies; reorderings across heavy-tailed links
//!    are exactly where serializability bugs would surface.
//! 3. **Report sanity** — the SLO reports are internally consistent
//!    (p50 ≤ p99, verdict matches the checker, WAN floors respected).
//! 4. **One `(key, id)` pop is the coordinate order** — `LatencyScheduler`
//!    takes the top of the delivery heap; on any pool, however stale its
//!    heap, that pick is the minimum `(key, id)` over the live messages (the
//!    same walk holds Random to the k-th live message by id).  On the
//!    engine's own runs — clean, under the dup storm, across a crash that
//!    re-queues in-flight messages — every delivery is also the minimum of
//!    `(key, sent_at, source, id)`: ids are issued in send order, one
//!    handler per tick, so breaking an equal-key tie by id *is* breaking it
//!    by the send's coordinates, the order property 1 rests on.
//! 5. **The SLO table, exactly** — the 18 rows `snow table scenarios` prints
//!    (`snow_bench::scenario_rows`: seed 42, 256 rounds, over 1 000
//!    committed transactions per cell) are virtual site-ticks and checker
//!    verdicts, pure functions of `(cell, seed)`, compared for equality.

use snow_checker::{StreamChecker, Verdict};
use snow_core::{ClientId, ProcessId, ServerId, SystemConfig};
use snow_protocols::{deploy_any, scenario_dup_storm, AnyMsg, AnyNode, ProtocolKind};
use snow_sim::{
    Causal, Crash, CrashPolicy, FaultSchedule, LatencyScheduler, MessagePool, MsgId,
    PendingMessage, Process, RandomScheduler, Scheduler, Simulation, StepOutcome, Topology, TICK,
};
use snow_workload::scenario::{
    run_scenario, scenario_matrix, slo_report, Scenario, TopologyKind, WorkloadShape,
};
use snow_workload::{WorkloadGenerator, WorkloadSpec};
use std::sync::Arc;

use proptest::proptest;
use proptest::ProptestConfig;

/// Every cell of the matrix — all protocols × topologies × shapes — yields
/// a strictly serializable history, and its SLO report is internally
/// consistent.
#[test]
fn every_matrix_cell_is_certified_serializable() {
    let cells = scenario_matrix();
    assert!(cells.len() >= 12, "matrix shrank below the acceptance floor");
    for cell in &cells {
        let run = run_scenario(cell, 42, 3).unwrap();
        assert!(
            run.history.records.iter().all(|r| r.outcome.is_some()),
            "{}: transaction left in flight",
            cell.name()
        );
        let verdict = StreamChecker::check(&run.history);
        assert!(
            matches!(verdict, Verdict::Serializable(_)),
            "{}: not certified: {verdict:?}",
            cell.name()
        );

        let report = slo_report(cell, 42, 3).unwrap();
        assert_eq!(report.scenario, cell.name());
        assert!(report.committed > 0, "{}: nothing committed", cell.name());
        assert!(report.read_p50 <= report.read_p99, "{}", cell.name());
        assert_eq!(report.snow.len(), 4, "{}: SNOW verdict shape", cell.name());
    }
}

/// `| scenario | SNOW | committed | READ p50 | READ p99 | mean rounds | C2C
/// messages | duration |`, latencies and duration in site-ticks.
/// Algorithm C's 1.01 is its counted targeted-fallback round, visible once a
/// cell commits enough READs.  Re-pinned once when a link's draw became the
/// delivery time (no slot round-up, no per-destination sub-tick band):
/// every row keeps its SNOW letters and committed count; the single-DC
/// latencies fall (AlgB social_graph p50 13 → 8 site-ticks) because a
/// `Uniform[1, 3]` link now delivers in 1–3 site-ticks, not 2–4.  The
/// `aborted` column, 0 in every row (a scenario run schedules no faults),
/// was dropped; every other cell is unchanged.
#[test]
fn scenario_slo_table_is_pinned() {
    let rows: Vec<String> = snow_bench::scenario_rows().iter().map(|c| snow_bench::row(c)).collect();
    let pinned = [
        "| algb/single_dc/social_graph | SN-W | 1096 | 8 | 10 | 2.00 | 0 | 2533 |",
        "| algb/single_dc/flash_sale | SN-W | 1307 | 7 | 10 | 2.00 | 0 | 2395 |",
        "| algb/single_dc/snapshot | SN-W | 1164 | 9 | 11 | 2.00 | 0 | 2582 |",
        "| algb/wan3/social_graph | SN-W | 1096 | 148 | 463 | 2.00 | 0 | 77199 |",
        "| algb/wan3/flash_sale | SN-W | 1307 | 95 | 392 | 2.00 | 0 | 64936 |",
        "| algb/wan3/snapshot | SN-W | 1164 | 173 | 481 | 2.00 | 0 | 78603 |",
        "| algb/client_remote/social_graph | SN-W | 1096 | 200 | 458 | 2.00 | 0 | 78348 |",
        "| algb/client_remote/flash_sale | SN-W | 1307 | 147 | 353 | 2.00 | 0 | 63030 |",
        "| algb/client_remote/snapshot | SN-W | 1164 | 220 | 443 | 2.00 | 0 | 82782 |",
        "| algc/single_dc/social_graph | SN-W | 1096 | 4 | 5 | 1.00 | 0 | 1610 |",
        "| algc/single_dc/flash_sale | SN-W | 1307 | 4 | 5 | 1.00 | 0 | 2049 |",
        "| algc/single_dc/snapshot | SN-W | 1164 | 5 | 5 | 1.00 | 0 | 1767 |",
        "| algc/wan3/social_graph | SN-W | 1096 | 115 | 321 | 1.00 | 0 | 54840 |",
        "| algc/wan3/flash_sale | SN-W | 1307 | 60 | 294 | 1.01 | 0 | 57428 |",
        "| algc/wan3/snapshot | SN-W | 1164 | 131 | 335 | 1.00 | 0 | 61898 |",
        "| algc/client_remote/social_graph | SN-W | 1096 | 116 | 302 | 1.01 | 0 | 56767 |",
        "| algc/client_remote/flash_sale | SN-W | 1307 | 83 | 293 | 1.01 | 0 | 53175 |",
        "| algc/client_remote/snapshot | SN-W | 1164 | 138 | 329 | 1.01 | 0 | 60301 |",
    ];
    assert_eq!(rows, pinned);
}

/// WAN topologies must actually cost more than the single-DC floor — the
/// whole point of the topology layer is that the latency columns of the
/// paper's Fig. 1 become *derived* quantities.
#[test]
fn wan_reads_are_slower_than_single_dc_reads() {
    for protocol in [
        snow_protocols::ProtocolKind::AlgB,
        snow_protocols::ProtocolKind::AlgC,
    ] {
        let shape = WorkloadShape::SocialGraph;
        let lan = slo_report(
            &Scenario { protocol, topology: TopologyKind::SingleDc, shape },
            9,
            3,
        )
        .unwrap();
        let wan = slo_report(
            &Scenario { protocol, topology: TopologyKind::ClientRemote, shape },
            9,
            3,
        )
        .unwrap();
        assert!(
            wan.read_p50 > lan.read_p50 * 2,
            "{protocol:?}: WAN p50 {} vs LAN p50 {}",
            wan.read_p50,
            lan.read_p50
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// A scenario history is a pure function of `(scenario, seed)`.
    /// Randomized over cells and seeds.
    #[test]
    fn scenario_histories_are_pure_functions_of_scenario_and_seed(
        seed in 0u64..1_000_000,
        cell_index in 0usize..18,
    ) {
        let cells = scenario_matrix();
        let cell = &cells[cell_index % cells.len()];
        let first = run_scenario(cell, seed, 2).unwrap();
        let again = run_scenario(cell, seed, 2).unwrap();
        assert_eq!(first.history, again.history, "{}: replay diverged", cell.name());
        assert_eq!(first.duration_ticks, again.duration_ticks, "{}", cell.name());
        assert!(!first.history.records.is_empty(), "{}: vacuous replay", cell.name());
    }
}

/// Deterministic draws for the pool proptest (SplitMix64).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The source component of the coordinate rank `(key, sent_at, source,
/// id)` (the simulator's `pid_bits`).
fn source_rank(src: ProcessId) -> u64 {
    match src {
        ProcessId::Server(s) => (1 << 32) | s.0 as u64,
        ProcessId::Client(c) => (2 << 32) | c.0 as u64,
    }
}

/// One walk over a pool: random inserts, adversarial takes
/// (`deliver_where`'s first match in send order), same-id re-queues
/// (`QueueInFlight`) and picks through `scheduler`, each checked against
/// `reference` — the pick computed from a plain `Vec` of the live messages.
/// The pools are hard on a pick that only looks at the heap top: a handful
/// of distinct keys (long tie runs), ids assigned in an order unrelated to
/// the rank, takes that leave stale entries behind, and re-queues in the
/// slot the message lies in, its old entry unconsumed.
fn walk(
    draw: &mut Draw,
    size: u64,
    distinct_keys: u64,
    sources: u64,
    scheduler: &mut impl Scheduler<()>,
    mut reference: impl FnMut(&[PendingMessage<()>]) -> MsgId,
) {
    let mut pool: MessagePool<()> = MessagePool::new();
    let mut live: Vec<PendingMessage<()>> = Vec::new();
    let mut next_id = 0u64;
    let mut fresh = |draw: &mut Draw| {
        // Ids grow by random steps and say nothing about the rank.
        next_id += 1 + draw.below(4);
        let src = match draw.below(sources) {
            0 => ProcessId::Client(ClientId(1)),
            s => ProcessId::Server(ServerId(s as u32 - 1)),
        };
        PendingMessage {
            id: MsgId(next_id),
            src,
            dst: ProcessId::Client(ClientId(0)),
            msg: (),
            sent_at: draw.below(3),
            causal: Causal::ROOT,
            deliver_at: 2 * TICK + draw.below(distinct_keys),
        }
    };
    for _ in 0..size {
        let msg = fresh(draw);
        live.push(msg.clone());
        pool.insert(msg);
    }
    while !live.is_empty() {
        match draw.below(8) {
            0 => {
                let src = live[draw.below(live.len() as u64) as usize].src;
                let first = live.iter().filter(|m| m.src == src).map(|m| m.id).min();
                let taken = pool.find_first(|m| m.src == src).map(|slot| pool.take(slot).id);
                assert_eq!(taken, first, "find_first is the first match in send order");
                live.retain(|m| Some(m.id) != taken);
            }
            1 => {
                let at = draw.below(live.len() as u64) as usize;
                let id = live[at].id;
                let held = pool.find_first(|m| m.id == id).unwrap();
                pool.requeue(held, live[at].deliver_at + draw.below(3));
                live[at] = pool.get(held).clone();
            }
            2 => {
                let msg = fresh(draw);
                live.push(msg.clone());
                pool.insert(msg);
            }
            _ => {
                let expected = reference(&live);
                let earliest = pool.peek_earliest();
                let slot = scheduler.next(&mut pool, earliest, 0).expect("pool is not empty");
                let picked = pool.take(slot).id;
                assert_eq!(picked, expected, "pick differs from the reference");
                live.retain(|m| m.id != picked);
            }
        }
        assert_eq!(pool.len(), live.len());
    }
    assert!(scheduler.next(&mut pool, None, 0).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Every pick discipline on the same kind of walk, against its `Vec`
    /// reference: the latency scheduler, over a topology and at zero
    /// latency, takes the minimum `(key, id)`; Random the k-th live message by id,
    /// k drawn from the scheduler's own SplitMix64 stream (`Draw(seed)`
    /// yields exactly `RandomScheduler::new(seed)`'s draws).
    #[test]
    fn topology_pick_is_the_whole_pool_minimum(
        seed in 0u64..u64::MAX,
        size in 8u64..96,
        distinct_keys in 1u64..6,
        sources in 1u64..5,
    ) {
        let by_key = |live: &[PendingMessage<()>]| {
            live.iter().min_by_key(|m| (m.deliver_at, m.id)).unwrap().id
        };
        let config = SystemConfig::mwmr(4, 2, 2);
        let mut topology = LatencyScheduler::over(Arc::new(Topology::single_dc(&config)), seed);
        walk(&mut Draw(seed), size, distinct_keys, sources, &mut topology, by_key);
        walk(&mut Draw(!seed), size, distinct_keys, sources, &mut LatencyScheduler::fifo(), by_key);

        let mut stream = Draw(seed);
        let kth_by_id = move |live: &[PendingMessage<()>]| {
            let mut ids: Vec<MsgId> = live.iter().map(|m| m.id).collect();
            ids.sort_unstable();
            ids[stream.below(ids.len() as u64) as usize]
        };
        let mut random = RandomScheduler::new(seed);
        walk(&mut Draw(seed.rotate_left(32)), size, distinct_keys, sources, &mut random, kth_by_id);
    }
}

/// Steps `sim` to quiescence, checking that every message the topology
/// scheduler delivers is the minimum of `(key, sent_at, source, id)` over
/// the messages pending before the step.  Returns `(deliveries, ties)`:
/// the deliveries checked, and how many of them had an equal-key rival
/// still pending — so a run without ties shows.
fn deliver_in_coordinate_order(sim: &mut Simulation<AnyNode, LatencyScheduler>) -> (u64, u64) {
    let rank = |m: &PendingMessage<AnyMsg>| (m.deliver_at, m.sent_at, source_rank(m.src), m.id);
    let (mut deliveries, mut ties) = (0, 0);
    loop {
        let expected = sim.pending().map(rank).min();
        match sim.step() {
            StepOutcome::Delivered(id) => {
                let (key, .., min_id) = expected.expect("a delivery needs a pending message");
                assert_eq!(id, min_id, "delivery is not the coordinate minimum");
                deliveries += 1;
                ties += u64::from(sim.pending().any(|m| m.deliver_at == key));
            }
            StepOutcome::Invoked(_) => {}
            StepOutcome::Quiescent => return (deliveries, ties),
        }
    }
}

/// The engine half of property 4: AlgB and AlgC on `wan3` and `single_dc`,
/// each clean, under `scenario_dup_storm()` and across a `QueueInFlight`
/// crash, deliver every message in coordinate order through the one
/// `(key, id)` pop.
#[test]
fn engine_deliveries_are_the_coordinate_minimum() {
    const ROUNDS: usize = 30;
    let config = SystemConfig::mwmr(4, 3, 3);
    let crash = FaultSchedule::new(5).with_crash(Crash {
        server: ServerId(1),
        at: 10 * TICK,
        recover_at: 60 * TICK,
        policy: CrashPolicy::QueueInFlight,
    });
    let (mut deliveries, mut ties) = (0, 0);
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC] {
        for topology in [Topology::wan3(&config), Topology::single_dc(&config)] {
            for faults in [None, Some(scenario_dup_storm()), Some(crash.clone())] {
                let scheduler = LatencyScheduler::over(Arc::new(topology.clone()), 3);
                let mut sim = Simulation::new(scheduler);
                if let Some(faults) = faults {
                    let config = config.clone();
                    let restart = move |pid| {
                        let nodes = deploy_any(protocol, &config).unwrap();
                        nodes.into_iter().find(|n| n.id() == pid).unwrap()
                    };
                    sim = sim.with_faults(faults, Some(Box::new(restart)));
                }
                for node in deploy_any(protocol, &config).unwrap() {
                    sim.add_process(node);
                }
                let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
                for _ in 0..ROUNDS {
                    let now = sim.now();
                    for _ in 0..config.num_writers {
                        let tx = generator.next_write();
                        sim.invoke_at(now, tx.client, tx.spec);
                    }
                    for _ in 0..config.num_readers {
                        let tx = generator.next_read();
                        sim.invoke_at(now, tx.client, tx.spec);
                    }
                    let (d, t) = deliver_in_coordinate_order(&mut sim);
                    deliveries += d;
                    ties += t;
                    // Retires what a fault orphaned, so every client is
                    // idle for the next round.
                    sim.run_until_quiescent();
                }
            }
        }
    }
    assert!(deliveries > 10_000, "{deliveries} deliveries checked");
    assert!(ties > 0, "no equal-key tie among {deliveries} deliveries");
}
