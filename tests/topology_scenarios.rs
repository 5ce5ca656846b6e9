//! The scenario matrix's correctness and determinism contract.
//!
//! Five pinned properties:
//!
//! 1. **Replay** — a scenario history is a pure function of
//!    `(scenario, seed)`: two runs produce bit-identical histories,
//!    virtual timestamps included.  This is the `TopologyScheduler`
//!    contract (keys that never tie across destinations, coordinate
//!    tie-breaks, latencies hashed from each send's coordinates) combined
//!    with the runner's consecutive-µtick invocation rule.
//! 2. **Certification** — every cell of the matrix produces a strictly
//!    serializable history under `GraphChecker`, on every topology.  A WAN
//!    doesn't just stretch latencies; reorderings across heavy-tailed links
//!    are exactly where serializability bugs would surface.
//! 3. **Report sanity** — the SLO reports are internally consistent
//!    (p50 ≤ p99, verdict matches the checker, WAN floors respected).
//! 4. **The tie-break is the whole-pool minimum** — `TopologyScheduler`
//!    picks from the top of the delivery heap; on any pool, however stale
//!    its heap, that pick is the minimum of `(key, sent_at, source, id)`
//!    over the live messages — the order property 1 rests on.  The same
//!    walk holds FIFO to the minimum `(key, id)` and Random to the k-th
//!    live message by id.
//! 5. **The SLO table, exactly** — the 18 rows `table_scenarios` prints
//!    (`snow_bench::scenario_rows`: seed 42, 256 rounds, over 1 000
//!    committed transactions per cell) are virtual site-ticks and checker
//!    verdicts, pure functions of `(cell, seed)`, compared for equality.

use snow_checker::{GraphChecker, Verdict};
use snow_core::{ClientId, ProcessId, ServerId, SystemConfig};
use snow_sim::{
    Causal, FifoScheduler, MessagePool, MsgId, PendingMessage, RandomScheduler, Scheduler,
    Topology, TopologyScheduler, TICK,
};
use snow_workload::scenario::{
    run_scenario, scenario_matrix, slo_report, Scenario, TopologyKind, WorkloadShape,
};
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
        let verdict = GraphChecker::new().check(&run.history);
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

/// `| scenario | SNOW | committed | aborted | READ p50 | READ p99 | mean
/// rounds | C2C messages | duration |`, latencies and duration in site-ticks.
/// Algorithm C's 1.01 is its counted targeted-fallback round, visible once a
/// cell commits enough READs.
#[test]
fn scenario_slo_table_is_pinned() {
    let rows: Vec<String> = snow_bench::scenario_rows().iter().map(|c| snow_bench::row(c)).collect();
    let pinned = [
        "| algb/single_dc/social_graph | SN-W | 1096 | 0 | 13 | 16 | 2.00 | 0 | 3770 |",
        "| algb/single_dc/flash_sale | SN-W | 1307 | 0 | 11 | 15 | 2.00 | 0 | 3543 |",
        "| algb/single_dc/snapshot | SN-W | 1164 | 0 | 13 | 16 | 2.00 | 0 | 3804 |",
        "| algb/wan3/social_graph | SN-W | 1096 | 0 | 151 | 474 | 2.00 | 0 | 77827 |",
        "| algb/wan3/flash_sale | SN-W | 1307 | 0 | 101 | 417 | 2.00 | 0 | 68036 |",
        "| algb/wan3/snapshot | SN-W | 1164 | 0 | 179 | 475 | 2.00 | 0 | 81696 |",
        "| algb/client_remote/social_graph | SN-W | 1096 | 0 | 199 | 455 | 2.00 | 0 | 77828 |",
        "| algb/client_remote/flash_sale | SN-W | 1307 | 0 | 155 | 376 | 2.00 | 0 | 65903 |",
        "| algb/client_remote/snapshot | SN-W | 1164 | 0 | 213 | 449 | 2.00 | 0 | 81202 |",
        "| algc/single_dc/social_graph | SN-W | 1096 | 0 | 7 | 8 | 1.00 | 0 | 2339 |",
        "| algc/single_dc/flash_sale | SN-W | 1307 | 0 | 6 | 7 | 1.00 | 0 | 3086 |",
        "| algc/single_dc/snapshot | SN-W | 1164 | 0 | 7 | 8 | 1.00 | 0 | 2621 |",
        "| algc/wan3/social_graph | SN-W | 1096 | 0 | 117 | 326 | 1.00 | 0 | 52781 |",
        "| algc/wan3/flash_sale | SN-W | 1307 | 0 | 62 | 300 | 1.00 | 0 | 55886 |",
        "| algc/wan3/snapshot | SN-W | 1164 | 0 | 127 | 332 | 1.01 | 0 | 61829 |",
        "| algc/client_remote/social_graph | SN-W | 1096 | 0 | 120 | 269 | 1.01 | 0 | 54399 |",
        "| algc/client_remote/flash_sale | SN-W | 1307 | 0 | 88 | 259 | 1.01 | 0 | 54726 |",
        "| algc/client_remote/snapshot | SN-W | 1164 | 0 | 143 | 371 | 1.01 | 0 | 62252 |",
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

/// The source component of the scheduler's tie-break rank.
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
/// the rank, takes that leave stale entries behind, and re-queues that land
/// in the slot they just left, their old entry unconsumed.
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
            deliver_at: Some(2 * TICK + draw.below(distinct_keys)),
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
                let taken = pool.take_first(|m| m.src == src).map(|m| m.id);
                assert_eq!(taken, first, "take_first is the first match in send order");
                live.retain(|m| Some(m.id) != taken);
            }
            1 => {
                let at = draw.below(live.len() as u64) as usize;
                let id = live[at].id;
                let mut held = pool.take_first(|m| m.id == id).unwrap();
                held.deliver_at = Some(held.delivery_key() + draw.below(3));
                live[at] = held.clone();
                pool.insert(held);
            }
            2 => {
                let msg = fresh(draw);
                live.push(msg.clone());
                pool.insert(msg);
            }
            _ => {
                let expected = reference(&live);
                let picked = scheduler.next(&mut pool, 0).expect("pool is not empty").id;
                assert_eq!(picked, expected, "pick differs from the reference");
                live.retain(|m| m.id != picked);
            }
        }
        assert_eq!(pool.len(), live.len());
    }
    assert!(scheduler.next(&mut pool, 0).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Every pick discipline on the same kind of walk, against its `Vec`
    /// reference: FIFO (and latency, the same pop) is the minimum
    /// `(key, id)`; topology the minimum `(key, sent_at, source, id)` —
    /// the order property 1 rests on; Random the k-th live message by id,
    /// k drawn from the scheduler's own SplitMix64 stream (`Draw(seed)`
    /// yields exactly `RandomScheduler::new(seed)`'s draws).
    #[test]
    fn topology_pick_is_the_whole_pool_minimum(
        seed in 0u64..u64::MAX,
        size in 8u64..96,
        distinct_keys in 1u64..6,
        sources in 1u64..5,
    ) {
        let min_by = |rank: fn(&PendingMessage<()>) -> (u64, u64, u64, u64)| {
            move |live: &[PendingMessage<()>]| live.iter().min_by_key(|&m| rank(m)).unwrap().id
        };
        let config = SystemConfig::mwmr(4, 2, 2);
        let mut topology = TopologyScheduler::new(Arc::new(Topology::single_dc(&config)), seed);
        let by_topology = min_by(|m| (m.delivery_key(), m.sent_at, source_rank(m.src), m.id.0));
        walk(&mut Draw(seed), size, distinct_keys, sources, &mut topology, by_topology);

        let by_key = min_by(|m| (m.delivery_key(), m.id.0, 0, 0));
        walk(&mut Draw(!seed), size, distinct_keys, sources, &mut FifoScheduler::new(), by_key);

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
