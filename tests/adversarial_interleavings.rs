//! Property tests for the simulator under adversarial driving.
//!
//! Random schedules (seeded latency model) interleaved with random
//! `deliver_where` / `force_invoke` adversarial moves must preserve the
//! invariants the SNOW arguments and the strict-serializability checkers
//! lean on:
//!
//! * **(a) monotone time** — the timestamps of the run's action log (the
//!   obs stream) never regress, and no transaction's RESP precedes its
//!   INV.  This is the regression property of the adversarial-delivery
//!   clock-skew fix: `Simulation` clamps the clock to
//!   `max(now, event_time) + 1` on every dispatch, so adversaries control
//!   *order*, never *time*;
//! * **(b) replay and certification** — on identical seeds, a
//!   scheduler-driven plan produces byte-identical histories on two fresh
//!   `Simulation`s, certified strictly serializable by `StreamChecker`; the
//!   adversarially perturbed history must itself be certified too.

use proptest::proptest;
use proptest::ProptestConfig;
use snow::checker::{StreamChecker, Verdict};
use snow::core::{ClientId, History, ObjectId, TxId, TxSpec, Value};
use snow::protocols::{deploy_any, AnyNode, ProtocolKind};
use snow::sim::{LatencyScheduler, ObsEvent, RecordingSink, Simulation, StepOutcome};

/// SplitMix64: deterministic per-seed stream driving plan and adversary.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A random plan: `rounds` rounds, each scheduling at most one transaction
/// per client (one-outstanding well-formedness is preserved because every
/// round is drained to quiescence before the next is scheduled).
fn random_round(
    rng: &mut Rng,
    protocol: ProtocolKind,
    num_objects: u32,
    writers: &[ClientId],
    readers: &[ClientId],
) -> Vec<(ClientId, TxSpec)> {
    let _ = protocol;
    let mut round = Vec::new();
    for w in writers {
        if rng.below(4) == 0 {
            continue; // some clients sit a round out
        }
        let mut writes = vec![(ObjectId(rng.below(num_objects as u64) as u32), Value(rng.next() % 1_000))];
        if rng.below(2) == 0 {
            let o = ObjectId(rng.below(num_objects as u64) as u32);
            if writes.iter().all(|(w, _)| *w != o) {
                writes.push((o, Value(rng.next() % 1_000)));
            }
        }
        round.push((*w, TxSpec::write(writes)));
    }
    for r in readers {
        if rng.below(4) == 0 {
            continue;
        }
        let mut objects = vec![ObjectId(rng.below(num_objects as u64) as u32)];
        let o = ObjectId(rng.below(num_objects as u64) as u32);
        if !objects.contains(&o) {
            objects.push(o);
        }
        round.push((*r, TxSpec::read(objects)));
    }
    round
}

/// Drives one round's invocations to quiescence with a random mix of
/// scheduler steps, adversarial rank-targeted deliveries and forced
/// invocations.
fn drain_adversarially(
    sim: &mut Simulation<AnyNode, LatencyScheduler, RecordingSink>,
    rng: &mut Rng,
    clients: &[ClientId],
) {
    while !sim.is_quiescent() {
        match rng.below(4) {
            0 => {
                // Deliver a uniformly random in-flight message, bypassing
                // the scheduler.
                let ids: Vec<_> = sim.pending().map(|p| p.id).collect();
                if let Some(&target) = ids.get(rng.below(ids.len() as u64) as usize) {
                    sim.deliver_where(|p| p.id == target);
                } else if sim.step() == StepOutcome::Quiescent {
                    break;
                }
            }
            1 => {
                // Force a random client's next planned invocation.
                let client = clients[rng.below(clients.len() as u64) as usize];
                if sim.force_invoke(client).is_none() && sim.step() == StepOutcome::Quiescent {
                    break;
                }
            }
            _ => {
                if sim.step() == StepOutcome::Quiescent {
                    break;
                }
            }
        }
    }
}

fn assert_monotone_invariants(
    label: &str,
    sim: &mut Simulation<AnyNode, LatencyScheduler, RecordingSink>,
    txs: usize,
) {
    let events = sim.drain_obs_events();
    let sends = events.iter().filter(|e| matches!(e.event, ObsEvent::MessageSent { .. })).count();
    // The run is complete, quiescent and fault-free: an INV and a RESP per
    // transaction, a send and a receive per message, nothing else.
    assert!(sends > 0, "{label}: nothing was logged");
    assert_eq!(events.len(), 2 * txs + 2 * sends, "{label}: one event per external action");
    assert!(
        events.windows(2).all(|w| w[0].event.at() <= w[1].event.at()),
        "{label}: trace timestamps regressed"
    );
}

fn assert_history_well_timed(label: &str, history: &History) {
    for rec in &history.records {
        let responded = rec
            .responded_at
            .unwrap_or_else(|| panic!("{label}: {} incomplete", rec.tx_id));
        assert!(
            responded > rec.invoked_at,
            "{label}: {} RESP at {responded} does not follow INV at {}",
            rec.tx_id,
            rec.invoked_at
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn adversarial_interleavings_keep_time_monotone_and_histories_serializable(
        seed in 0u64..1_000_000,
    ) {
        for protocol in [ProtocolKind::AlgB, ProtocolKind::Blocking] {
            let config = protocol.config(3, 2, 2);
            let writers: Vec<ClientId> = config.writers().collect();
            let readers: Vec<ClientId> = config.readers().collect();
            let clients: Vec<ClientId> = writers.iter().chain(readers.iter()).copied().collect();
            let mut rng = Rng(seed ^ (protocol as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));

            let mut sim: Simulation<AnyNode, _, _> =
                Simulation::new(LatencyScheduler::new(seed, 1, 25)).with_sink(RecordingSink::new());
            for node in deploy_any(protocol, &config).expect("valid config") {
                sim.add_process(node);
            }
            let mut all_txs: Vec<TxId> = Vec::new();
            for _ in 0..3 {
                let round =
                    random_round(&mut rng, protocol, config.num_objects, &writers, &readers);
                let base = sim.now();
                for (client, spec) in round {
                    let at = base + rng.below(20);
                    all_txs.push(sim.invoke_at(at, client, spec));
                }
                drain_adversarially(&mut sim, &mut rng, &clients);
            }
            let label = format!("{protocol:?}/seed{seed}");
            assert!(sim.is_quiescent(), "{label}: leftover work");
            for tx in &all_txs {
                assert!(sim.is_complete(*tx), "{label}: {tx} incomplete");
            }

            // (a) adversarial moves may reorder, never rewind.
            assert_monotone_invariants(&label, &mut sim, all_txs.len());
            let history = sim.history();
            assert_history_well_timed(&label, &history);

            // The adversarially perturbed history is still strictly
            // serializable — the protocol's correctness contract under an
            // asynchronous network.
            let verdict = StreamChecker::check(&history);
            assert!(
                matches!(verdict, Verdict::Serializable(_)),
                "{label}: adversarial history not certified: {verdict:?}"
            );
        }
    }

    #[test]
    fn scheduler_driven_runs_replay_identically_and_are_certified(
        seed in 0u64..1_000_000,
    ) {
        // (b) identical seeds, no adversarial moves: two fresh simulations
        // must produce byte-identical, certified histories.
        for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC] {
            let config = protocol.config(3, 2, 2);
            let writers: Vec<ClientId> = config.writers().collect();
            let readers: Vec<ClientId> = config.readers().collect();
            let mut plan_rng = Rng(seed);
            let rounds: Vec<Vec<(ClientId, TxSpec)>> = (0..3)
                .map(|_| {
                    random_round(&mut plan_rng, protocol, config.num_objects, &writers, &readers)
                })
                .collect();
            let offsets: Vec<Vec<u64>> = rounds
                .iter()
                .map(|r| r.iter().map(|_| plan_rng.below(20)).collect())
                .collect();

            let run = || {
                let mut sim: Simulation<AnyNode, _> =
                    Simulation::new(LatencyScheduler::new(seed, 1, 25));
                for node in deploy_any(protocol, &config).expect("valid config") {
                    sim.add_process(node);
                }
                for (round, offs) in rounds.iter().zip(&offsets) {
                    let base = sim.now();
                    for ((client, spec), off) in round.iter().zip(offs) {
                        sim.invoke_at(base + off, *client, spec.clone());
                    }
                    sim.run_until_quiescent();
                }
                sim.history()
            };
            let history = run();
            let label = format!("{protocol:?}/seed{seed}");
            assert_eq!(format!("{history:?}"), format!("{:?}", run()), "{label}: replay diverged");
            let verdict = StreamChecker::check(&history);
            assert!(
                matches!(verdict, Verdict::Serializable(_)),
                "{label}: scheduler-driven history not certified: {verdict:?}"
            );
        }
    }
}
