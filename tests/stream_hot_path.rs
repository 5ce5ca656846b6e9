//! Guards on `StreamChecker`'s hot path, all exact and host-independent:
//!
//! * an **allocation budget** — heap allocations made inside `ingest` +
//!   `advance_watermark` per transaction in steady state, counted by a
//!   `#[global_allocator]` local to this test binary;
//! * **same computation** — the witness digest and every `StreamReport`
//!   counter of two pipeline runs and of 247 generated histories that leave
//!   the happy path, pinned exactly, so a later hot-path change that moves
//!   an edge, an `ord` or a retirement decision fails here;
//! * **the live window on a real driver history** — the round driver's
//!   1 000- and 10 000-transaction AlgB histories, `Serializable` from
//!   `check_auto` and from the stream, and every `StreamReport` counter
//!   (peak live window 61 and 84);
//! * **an open-loop AlgC history** on which the checker once panicked, now
//!   certified, as `check_auto` certifies it by tag order (at 5 000 and
//!   10 000 arrivals, with the batch Lemma 20 reference's witness);
//! * **seal-summary invalidation** — a stale read that re-linearises a
//!   sealed segment, followed by further reads of the same segment.

#[path = "support/alloc.rs"]
mod alloc;
mod support;

use alloc::counted;
use snow::checker::{check_auto, SearchChecker, SequentialOt, StreamChecker, StreamReport, Verdict};
use snow::core::hash::SplitMix;
use snow::core::{
    ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, SystemConfig, TxId, TxOutcome,
    TxRecord, TxSpec, Value, WriteOutcome,
};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::sim::Topology;
use snow::workload::{
    drive_open_loop, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use support::lemma20::TagOrderChecker;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

// ---- the two pipeline runs -------------------------------------------------

/// What one pipeline run of the semantic stream engine produced.
struct Run {
    witness_digest: u64,
    report: StreamReport,
    /// Allocations inside `ingest` + `advance_watermark` over `counted_rounds`.
    allocs: u64,
    /// Transactions ingested in those rounds.
    counted_txs: u64,
}

/// FNV-1a over the witness's transaction ids, in order.
fn fnv(witness: &[TxId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tx in witness {
        for b in tx.0.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// AlgB, the benchmark's write-heavy mix, closed loop in rounds of
/// `per_round` distinct clients, every round's commit drain fed to a
/// `StreamChecker` so its calls can be counted.  This drives the semantic
/// engine alone: `run_checked_mode(.., Streaming)` certifies AlgB by tag
/// order (`TagOrderStream`) and reaches this engine only when tags cannot
/// decide.
fn pipeline(
    config: SystemConfig,
    topology: Topology,
    per_round: usize,
    total: usize,
    counted_rounds: std::ops::RangeInclusive<usize>,
) -> Run {
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(topology), 7)
        .max_steps(u64::MAX)
        .build()
        .expect("AlgB runs on MWMR configurations");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let mut checker = StreamChecker::new();
    let (mut issued, mut round, mut allocs, mut counted_txs) = (0usize, 0usize, 0u64, 0u64);
    while issued < total {
        round += 1;
        let this_round = per_round.min(total - issued);
        let mut seen_clients = BTreeSet::new();
        let mut batch = Vec::with_capacity(this_round);
        while batch.len() < this_round {
            let tx = generator.next_tx();
            if seen_clients.insert(tx.client) {
                batch.push((tx.client, tx.spec));
            }
        }
        issued += batch.len();
        let now = cluster.now();
        cluster.invoke_batch(now, batch);
        cluster.run_until_quiescent();
        let drain = cluster.drain_commits();
        let n = drain.records.len() as u64;
        let ((), made) = counted(|| {
            for rec in drain.records {
                checker.ingest(rec);
            }
            checker.advance_watermark(drain.inv_floor);
        });
        if counted_rounds.contains(&round) {
            allocs += made.allocs;
            counted_txs += n;
        }
    }
    let verdict = checker.finish();
    let Verdict::Serializable(witness) = &verdict else {
        panic!("AlgB is strictly serializable, the stream says {verdict:?}");
    };
    assert_eq!(witness.len(), total);
    Run {
        witness_digest: fnv(witness),
        report: checker.report(),
        allocs,
        counted_txs,
    }
}

/// `wide-b-dc`'s shape: 128 clients per round, one DC.
fn wide() -> Run {
    let config = SystemConfig::mwmr(16, 64, 64);
    pipeline(
        config.clone(),
        Topology::single_dc(&config),
        128,
        128 * 12,
        4..=10,
    )
}

/// `closed-b-wan3`'s shape: 8 clients per round, three sites.
fn narrow() -> Run {
    let config = SystemConfig::mwmr(8, 4, 4);
    pipeline(config.clone(), Topology::wan3(&config), 8, 2_000, 50..=250)
}

fn counters(r: &StreamReport) -> [u64; 8] {
    [
        r.edges_added,
        r.window_resolves,
        r.peak_live_window as u64,
        r.max_retirement_lag,
        r.pk_reorders,
        r.pk_region_nodes,
        r.sealed_observations,
        r.seal_relinearizations,
    ]
}

#[test]
fn same_computation_as_before_the_hot_path_pass() {
    // [edges_added, window_resolves, peak_live_window, max_retirement_lag,
    //  pk_reorders, pk_region_nodes, sealed_observations,
    //  seal_relinearizations].  Re-pinned once for gap-labelled `ord`s: a
    // fresh READ whose first out-edge points below it now takes a label in
    // the gap under its successor instead of forcing a reorder.  Wide:
    // pk_reorders 1 499 → 152, pk_region_nodes 18 855 → 617.  The new
    // labels order the retire pass's emission differently, so seal
    // intervals merge differently: the digest moves and the peak live window
    // goes 200 → 219.  Narrow: pk_reorders 641 → 19, pk_region_nodes
    // 1 557 → 47, the digest moves, the other counters hold.
    //
    // Re-pinned once more when a link's draw became the delivery time (no
    // slot round-up, no per-destination sub-tick band): both histories
    // are new schedules, so every digest and most counters move.  Wide:
    // 0x2544_acaf_9e06_ebb9 [3784, 0, 219, 8995, 152, 617, 1403, 0] →
    // 0xf51a_f5c4_1488_d225 [3668, 0, 206, 6229, 152, 552, 1403, 0].
    // Narrow: 0xd7fa_f8a3_0bd7_5275 [2247, 0, 62, 577_691, 19, 47, 864, 0] →
    // 0x589e_c10f_a64e_7b6d [2242, 0, 61, 665_447, 19, 53, 850, 0].
    let w = wide();
    assert_eq!(
        (w.witness_digest, counters(&w.report)),
        (
            0xf51a_f5c4_1488_d225,
            [3668, 0, 206, 6229, 152, 552, 1403, 0]
        )
    );
    let n = narrow();
    assert_eq!(
        (n.witness_digest, counters(&n.report)),
        (
            0x589e_c10f_a64e_7b6d,
            [2242, 0, 61, 665_447, 19, 53, 850, 0]
        )
    );
}

#[test]
fn steady_state_ingest_stays_inside_its_allocation_budget() {
    // Rounds 4–10 of 128 transactions each.  The parent commit (16fd4fb)
    // made 75 620 allocations here (84.4 per transaction); the hot-path pass
    // leaves 231 (0.26) — recycled edge vectors still growing to their final
    // capacity, and each new seal's member list — and the budget is that
    // plus 25 %.
    let w = wide();
    assert_eq!(w.counted_txs, 7 * 128);
    assert!(
        w.allocs <= 288,
        "{} allocations inside ingest + advance_watermark over {} transactions",
        w.allocs,
        w.counted_txs
    );
}

// ---- the live window on a driver history ------------------------------------

#[test]
fn live_window_on_the_round_driver_history_is_pinned() {
    // AlgB on `mwmr(8,4,4)`, write-heavy, closed loop in rounds of 8 under
    // the golden fixtures' latency distribution.  The window is O(in-flight +
    // frontier), not O(history): 61 at 1 000 transactions, 84 at 10 000.  No
    // engine may answer `Unknown` on it.  Gap-labelled `ord`s moved the
    // Pearce–Kelly counters: at 1 000, pk_reorders 381 → 10 and
    // pk_region_nodes 950 → 29; at 10 000, 4 108 → 97 and 10 576 → 244, and
    // the window 86 → 84 (the emission order changed).  The other counters
    // held.  `check_auto` accepts by tag order here; the stream decides
    // the same history semantically, and both must say `Serializable`.
    let config = SystemConfig::mwmr(8, 4, 4);
    for (transactions, retirements, pinned) in [
        (1_000, 125, [1084, 0, 61, 37, 10, 29, 468, 0]),
        (10_000, 1250, [11248, 0, 84, 42, 97, 244, 4463, 0]),
    ] {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
            .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
            .max_steps(u64::MAX)
            .build()
            .expect("AlgB runs on MWMR configurations");
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (history, driven) =
            WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, transactions);
        assert_eq!((driven.issued, driven.completed), (transactions, transactions));
        let mut stream = StreamChecker::new().with_obs();
        stream.feed_history(&history);
        for verdict in [check_auto(&history), stream.finish()] {
            assert!(matches!(verdict, Verdict::Serializable(_)), "{transactions}: {verdict:?}");
        }
        let r = stream.report();
        assert_eq!((r.ingested, r.certified), (transactions, transactions));
        assert_eq!(counters(&r), pinned, "{transactions} transactions");
        assert_eq!(stream.drain_obs_events().len(), retirements, "`CheckerRetired` events");
    }
}

// ---- an open-loop history that once panicked --------------------------------

#[test]
fn stream_agrees_with_check_auto_on_an_open_loop_algc_history() {
    // AlgC, `open-c-read`'s shape at 5 000 arrivals and at the benchmark's
    // 10 000.  A retired slot's id used to linger in its successors'
    // `preds`; once the slot was reused, the backward Pearce–Kelly search
    // met a free slot and panicked with "live slot" at 5 000 where
    // `check_auto` says `Serializable`.  `check_auto` certifies by tag
    // order here, with the batch Lemma 20 reference's verdict, witness
    // included.
    let config = SystemConfig::mwmr(8, 2, 6);
    let workload = WorkloadSpec {
        read_fraction: 0.96,
        objects_per_read: 4,
        objects_per_write: 2,
        zipf_exponent: 0.99,
        seed: 224,
    };
    for arrivals in [5_000, 10_000] {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
            .scheduler(SchedulerKind::Latency { seed: 32, min: 1, max: 16 })
            .max_steps(u64::MAX)
            .build()
            .expect("AlgC runs on MWMR configurations");
        let spec =
            OpenLoopSpec { workload: workload.clone(), rate: 50, arrivals, arrival_seed: 416 };
        let (history, report) = drive_open_loop(cluster.as_mut(), &config, &spec);
        assert_eq!(report.completed, arrivals);
        let stream = StreamChecker::check(&history);
        let auto = check_auto(&history);
        assert!(auto.is_serializable(), "{arrivals}: {auto:?}");
        assert!(stream.is_serializable(), "{arrivals}: {stream:?}");
        assert_eq!(auto, TagOrderChecker::new().check(&history), "{arrivals}");
    }
}

// ---- same computation off the happy path -----------------------------------

/// 200 transactions over a few objects, each taking effect atomically at a
/// point inside its interval (so the history is strictly serializable), with
/// heavily overlapping writes — tagged in a third of the histories — and a
/// few READs per hundred then made to return an older version.  This is the
/// regime the pipeline runs never enter: window re-solves, segments
/// re-linearised by stale reads, reads of expired versions that stay
/// pending, slots retired and reused.
fn scarred_history(seed: u64) -> History {
    let mut rng = SplitMix::new(seed);
    let (n_objects, n_writers) = (1 + rng.below(4), 1 + rng.below(6));
    let (span, dur, stale_pct) = (10 + rng.below(40), 20 + rng.below(40), rng.below(5));
    let tagged = rng.below(3) == 0;
    let mut busy_until = vec![0u64; n_writers as usize + 4];
    // (effect point, id, inv, resp, client, objects); clients ≥ n_writers read.
    let mut txs: Vec<(u64, u64, u64, u64, u64, Vec<ObjectId>)> = Vec::new();
    for id in 1..=200 {
        let client = rng.below(n_writers + 4);
        let inv = busy_until[client as usize] + rng.below(span);
        let resp = inv + 1 + rng.below(dur);
        busy_until[client as usize] = resp + 1;
        let mut objects = vec![ObjectId(rng.below(n_objects) as u32)];
        let second = ObjectId(rng.below(n_objects) as u32);
        if !objects.contains(&second) {
            objects.push(second);
        }
        objects.sort();
        txs.push((
            inv + rng.below(resp - inv + 1),
            id,
            inv,
            resp,
            client,
            objects,
        ));
    }
    txs.sort();
    let mut installed: Vec<Vec<Key>> = vec![vec![Key::initial()]; n_objects as usize];
    let mut seqs = vec![0u64; n_writers as usize];
    let mut records = Vec::new();
    for (tag, (_, id, inv, resp, client, objects)) in (2u64..).zip(txs) {
        let tag = tagged.then_some(snow::core::Tag(tag));
        let client_id = ClientId(client as u32);
        let mut rec = if client < n_writers {
            seqs[client as usize] += 1;
            let key = Key::new(seqs[client as usize], client_id);
            objects
                .iter()
                .for_each(|o| installed[o.0 as usize].push(key));
            let spec = TxSpec::write(objects.iter().map(|&o| (o, Value(id))).collect());
            let mut rec = TxRecord::invoked(TxId(id), client_id, spec, inv);
            rec.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag }));
            rec
        } else {
            let reads = objects.iter().map(|&object| {
                let versions = &installed[object.0 as usize];
                let back = if rng.below(100) < stale_pct {
                    rng.below(4) as usize
                } else {
                    0
                };
                let key = versions[versions.len().saturating_sub(1 + back)];
                ObjectRead {
                    object,
                    key,
                    value: Value(0),
                }
            });
            let outcome = ReadOutcome {
                reads: reads.collect(),
                tag,
            };
            let mut rec = TxRecord::invoked(TxId(id), client_id, TxSpec::read(objects), inv);
            rec.outcome = Some(TxOutcome::Read(outcome));
            rec
        };
        rec.responded_at = Some(resp);
        records.push(rec);
    }
    records.sort_by_key(|r| r.tx_id.0);
    let mut history = History::new();
    records.into_iter().for_each(|r| history.push(r));
    history
}

#[test]
fn same_computation_on_scarred_histories() {
    // Everything the checker reports, folded over 247 histories; the small
    // split budget keeps the undecidable ones cheap.  The named seeds are
    // the first found (of 40 000) on which a hot-path pass that broke `ord`
    // ties differently in the emission order, or emptied an expired seal's
    // member list, changed a verdict: about one history in 10 000 and one
    // in 2 000.
    let seeds = (0..240).chain([2666, 3117, 3529, 4138, 13668, 14322, 22444]);
    let (mut facts, mut work) = (Vec::new(), [0u64; 4]);
    let mut categories = [0usize; 4];
    for seed in seeds {
        let history = scarred_history(seed);
        let mut checker = StreamChecker::with_split_budget(32);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.feed_history(&history);
            checker.finish()
        }));
        // The checker contradicting itself: a "live slot" panic, or a
        // witness that fails its own replay — a `debug_assert!` in debug
        // builds, a conviction in release builds, one category here.
        let inconsistent = |v: &Verdict| {
            matches!(v, Verdict::NotSerializable(why) if why.starts_with("internal witness replay"))
        };
        let verdict = match run {
            Ok(verdict) if !inconsistent(&verdict) => verdict,
            _ => {
                categories[3] += 1;
                continue;
            }
        };
        let r = checker.report();
        let (category, witness) = match &verdict {
            Verdict::Serializable(witness) => (0, fnv(witness)),
            Verdict::NotSerializable(_) => (1, 0),
            Verdict::Unknown(_) => (2, 0),
        };
        // The four seeds on which the checker once contradicted itself,
        // each pinned by category.  The tag order, an engine independent of
        // this one, certifies 107, 14322 and 22444; it rejects 132, which
        // this engine convicts.
        let pinned = match seed {
            107 | 14322 | 22444 => Some(0),
            132 => Some(1),
            _ => None,
        };
        if let Some(expected) = pinned {
            assert_eq!(category, expected, "seed {seed}: {verdict:?}");
            let tags = TagOrderChecker::new().check(&history);
            assert_eq!(tags.is_serializable(), expected == 0, "seed {seed}: tag order {tags:?}");
        }
        categories[category] += 1;
        let offending = checker.offending_index().map_or(0, |i| i as u64 + 1);
        facts.extend([category as u64, witness, offending, r.certified as u64]);
        facts.extend(&counters(&r)[..4]);
        for (sum, c) in work.iter_mut().zip(&counters(&r)[4..]) {
            *sum += c;
        }
    }
    // The work counters are [pk_reorders, pk_region_nodes,
    // sealed_observations, seal_relinearizations].  Re-pinned once, when
    // retiring a slot began to drop its id from its successors' `preds` and
    // `ord`s became unique, gap-bisectable labels.  Categories [45, 119, 79,
    // 4] → [48, 120, 79, 0]: the four histories on which the checker used to
    // contradict itself — seeds 107 and 132 panicked with "live slot" after
    // a retired predecessor's reused slot corrupted the order, 14322 and
    // 22444 failed witness replay on tied `ord`s — now decide as pinned
    // above; every other history keeps its
    // category.  Work [5 385, 14 884, 352, 46] → [695, 1 941, 382, 50], and
    // the digest moves with the witnesses.  Re-pinned again when a later
    // overlap component of an object, retiring into the same seal as an
    // earlier one in one pass, began to keep the object revisable in that
    // seal instead of expiring it (the seal used to be replayed before a
    // later READ pinned the component's order, and its witness failed
    // replay on shrunk random histories).  Every verdict, witness and
    // offending commit held; seal_relinearizations 50 → 21 (eight histories
    // no longer re-solve a seal already replayed into the witness), and the
    // peak live window grew on 20 histories, whose seals now wait for the
    // object's next version — hence the digest 0x9a38_ca3a_b852_7de5 →
    // 0xf048_993e_120a_8c6f.  Re-pinned a third time when a window
    // re-solve that runs out of budget stopped ending the check: the window
    // keeps collecting commits for one more re-solve at `finish`.
    // Categories [48, 120, 79, 0] → [49, 138, 60, 0]: 19 of the 79
    // `Unknown`s are decided (18 convictions, 1 certificate, each the
    // category the former whole-history engine gave at the default budget);
    // every history decided before keeps its verdict, witness, offending
    // commit and counters.  Work [695, 1 941, ..] → [988, 3 066, ..] is the
    // Pearce–Kelly work of the commits now ingested after the first
    // `Unknown`; digest 0xf048_993e_120a_8c6f → 0x7d99_bad0_35e8_4e77.
    let facts: Vec<TxId> = facts.into_iter().map(TxId).collect();
    assert_eq!(
        (fnv(&facts), work, categories),
        (
            0x7d99_bad0_35e8_4e77,
            [988, 3066, 382, 21],
            [49, 138, 60, 0]
        )
    );
}

/// Two scarred histories on which a window re-solve runs out of splitting
/// budget long before the last commit.  The check used to end there with
/// `Unknown`, where the former whole-history engine convicted seed 183 —
/// an observation-forced cyclic version order of one object, found
/// without splitting — and certified seed 756.  The window now keeps
/// collecting commits after the budget runs out and re-solves once at
/// `finish`, which decides both the same way.  (Of 3 000 such histories,
/// 82 were left `Unknown` this way, 79 convictions and 3 certificates;
/// these two are the cheapest.)
#[test]
fn a_window_out_of_budget_still_decides_the_whole_history() {
    let verdict = check_auto(&scarred_history(183));
    let Verdict::NotSerializable(why) = &verdict else { panic!("{verdict:?}") };
    assert!(why.contains("force a cyclic version order"), "{why}");

    let history = scarred_history(756);
    let verdict = check_auto(&history);
    let Verdict::Serializable(witness) = &verdict else { panic!("{verdict:?}") };
    let mut ot = SequentialOt::new();
    for tx in witness {
        ot.apply(history.get(*tx).expect("witness transaction exists"))
            .unwrap_or_else(|o| panic!("witness fails replay at {tx} on {o}"));
    }
    assert_eq!(witness.len(), history.len());
}

// ---- seal-summary invalidation ---------------------------------------------

const X: ObjectId = ObjectId(0);

fn write(id: u64, client: u32, inv: u64, resp: u64) -> (TxRecord, Key) {
    let key = Key::new(id, ClientId(client));
    let mut w = TxRecord::invoked(
        TxId(id),
        ClientId(client),
        TxSpec::write(vec![(X, Value(id))]),
        inv,
    );
    w.responded_at = Some(resp);
    w.outcome = Some(TxOutcome::Write(WriteOutcome { key, tag: None }));
    (w, key)
}

fn read(id: u64, inv: u64, resp: u64, key: Key) -> TxRecord {
    let mut r = TxRecord::invoked(TxId(id), ClientId(9), TxSpec::read(vec![X]), inv);
    r.responded_at = Some(resp);
    r.outcome = Some(TxOutcome::Read(ReadOutcome {
        reads: vec![ObjectRead {
            object: X,
            key,
            value: Value(key.seq),
        }],
        tag: None,
    }));
    r
}

/// Two overlapping untagged writes retire into one sealed segment; `reads`
/// are then issued one after the other, each observing the given key.
fn sealed_pair_then(reads: &[Key]) -> (History, StreamChecker, Verdict) {
    let mut h = History::new();
    h.push(write(1, 1, 0, 10).0);
    h.push(write(2, 2, 1, 11).0);
    for (i, &key) in reads.iter().enumerate() {
        let inv = 20 + 20 * i as u64;
        h.push(read(3 + i as u64, inv, inv + 10, key));
    }
    let mut checker = StreamChecker::new();
    checker.feed_history(&h);
    let verdict = checker.finish();
    (h, checker, verdict)
}

#[test]
fn a_relinearised_seal_answers_later_reads_from_its_new_order() {
    let (k1, k2) = (write(1, 1, 0, 10).1, write(2, 2, 1, 11).1);
    // Whichever version the segment's first order puts last, the read of the
    // *other* one is stale and forces the re-linearisation.
    let stale = {
        let (_, checker, _) = sealed_pair_then(&[k1]);
        if checker.report().seal_relinearizations == 1 {
            k1
        } else {
            k2
        }
    };
    let (h, checker, verdict) = sealed_pair_then(&[stale, stale, stale]);
    let r = checker.report();
    assert_eq!((r.sealed_observations, r.seal_relinearizations), (3, 1));
    let Verdict::Serializable(witness) = &verdict else {
        panic!("the segment can be ordered to end in {stale}: {verdict:?}");
    };
    assert!(SearchChecker::default().check(&h).is_serializable());
    let mut ot = SequentialOt::new();
    for tx in witness {
        ot.apply(h.get(*tx).expect("witness transaction exists"))
            .unwrap_or_else(|o| panic!("witness fails replay at {tx} on {o}"));
    }
    assert_eq!(witness.len(), h.len());

    // After the flip, a read of the other version contradicts the first
    // read: the complete search and the stream both convict, the stream
    // at that read's commit.
    let other = if stale == k1 { k2 } else { k1 };
    let (h, checker, verdict) = sealed_pair_then(&[stale, stale, other]);
    assert!(verdict.is_violation(), "{verdict:?}");
    assert!(SearchChecker::default().check(&h).is_violation());
    assert_eq!(checker.offending_index(), Some(4));
}
